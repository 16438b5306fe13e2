/**
 * @file
 * Flight recorder implementation.
 */

#include "pipeline/recorder.hh"

#include "corpus/format.hh"
#include "corpus/reader.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::pipeline
{

namespace
{

/**
 * Spool identity: live capture has no generating ExperimentConfig, so
 * the key binds the format version and period set under a fixed tag.
 * drain() reopens its own spool, so the key only guards against a
 * stale file from a different period configuration.
 */
std::uint64_t
spoolKey(const std::vector<std::uint32_t> &periods)
{
    std::uint64_t key = corpus::kFnvOffset;
    key = corpus::fnv1aU64(key, corpus::kCorpusFormatVersion);
    key = corpus::fnv1aU64(key, 0xf117dec0'7de2ULL); // flight-recorder tag
    key = corpus::fnv1aU64(key, periods.size());
    for (std::uint32_t period : periods)
        key = corpus::fnv1aU64(key, period);
    return key;
}

// Capture volume is driven by the drift detector's deterministic
// verdicts, so the counters sit in the Deterministic domain.

struct RecorderCounters
{
    support::Counter &programs = support::metrics().counter(
        "pipeline.programs_flagged",
        "suspect programs captured into the flight-recorder spool");
    support::Counter &windows = support::metrics().counter(
        "pipeline.windows_buffered",
        "feature windows captured into the flight-recorder spool");
    support::Counter &dropped = support::metrics().counter(
        "pipeline.programs_dropped",
        "suspect programs dropped over the capture ceiling");
    support::Counter &drains = support::metrics().counter(
        "pipeline.spool_drains",
        "flight-recorder spools drained for retraining");
};

RecorderCounters &
recorderCounters()
{
    static RecorderCounters counters;
    return counters;
}

} // namespace

FlightRecorder::FlightRecorder(RecorderConfig config)
    : config_(std::move(config))
{
    fatal_if(config_.path.empty(), "FlightRecorder needs a spool path");
    fatal_if(config_.periods.empty(),
             "FlightRecorder needs at least one capture period");
}

support::Status
FlightRecorder::openSpool()
{
    auto writer = corpus::CorpusWriter::create(
        config_.path, spoolKey(config_.periods), config_.periods);
    if (!writer.isOk())
        return writer.status();
    writer_.emplace(std::move(*writer));
    return support::Status();
}

support::Status
FlightRecorder::flag(const features::ProgramFeatures &prog)
{
    RecorderCounters &counters = recorderCounters();
    if (programs_ >= kRecorderMaxPrograms) {
        ++dropped_;
        counters.dropped.add(1);
        return support::unavailableError(
            "flight recorder full (", kRecorderMaxPrograms,
            " programs this cycle); suspect '", prog.name,
            "' dropped");
    }
    if (!writer_.has_value()) {
        const support::Status opened = openSpool();
        if (!opened.isOk())
            return opened;
    }
    const std::uint64_t before = writer_->windowTotal();
    const support::Status appended = writer_->append(prog);
    if (!appended.isOk())
        return appended;
    ++programs_;
    counters.programs.add(1);
    counters.windows.add(writer_->windowTotal() - before);
    return support::Status();
}

support::StatusOr<features::FeatureCorpus>
FlightRecorder::drain()
{
    if (empty())
        return support::failedPreconditionError(
            "flight recorder drain with no captured programs");

    const support::Status finalized = writer_->finalize();
    if (!finalized.isOk())
        return finalized;

    // Replay through the same read path every corpus consumer uses:
    // what the retrainer trains on is the decoded image of the bytes
    // the serving path flagged, not a parallel in-memory copy.
    auto reader = corpus::CorpusReader::open(config_.path);
    if (!reader.isOk())
        return reader.status();
    if (reader->configKey() != spoolKey(config_.periods))
        return support::dataLossError(
            "flight-recorder spool '", config_.path,
            "' has a foreign config key");
    features::FeatureCorpus flagged = reader->materialize();
    lastHash_ = reader->contentHash();

    recorderCounters().drains.add(1);
    programs_ = 0;
    dropped_ = 0;
    writer_.reset();
    return flagged;
}

} // namespace rhmd::pipeline
