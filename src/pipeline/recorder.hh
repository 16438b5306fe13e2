/**
 * @file
 * Flight recorder: suspect-window capture over the RHMD-CORPUS
 * format.
 *
 * When the drift detector marks a served request as a suspect, its
 * program's feature windows must survive until the next retrain round
 * — but buffering decoded windows in memory scales with attack
 * volume, and retraining wants the same replay path every other
 * corpus consumer uses. FlightRecorder therefore streams each flagged
 * program straight into an RHMD-CORPUS spool file through
 * CorpusWriter (bounded memory: one program's windows at a time), and
 * drain() closes the spool, reopens it through CorpusReader, and
 * materializes the flagged set for the retrainer — the identical
 * encode/verify/decode path DESIGN.md §15 proves bit-exact, so a
 * retrain round sees precisely the windows the serving path scored.
 *
 * The spool's config key is derived from the period set alone (it is
 * live capture, not a generated corpus), and each drain cycle
 * truncates and restarts the spool file.
 */

#ifndef RHMD_PIPELINE_RECORDER_HH
#define RHMD_PIPELINE_RECORDER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "corpus/writer.hh"
#include "features/corpus.hh"
#include "support/status.hh"

namespace rhmd::pipeline
{

/**
 * Capture ceiling per recorder cycle: programs flagged beyond it are
 * dropped (counted, not buffered) so a flood of suspects cannot grow
 * the spool without bound before a retrain round drains it.
 */
constexpr std::size_t kRecorderMaxPrograms = 256;

/** Flight-recorder spool parameters. */
struct RecorderConfig
{
    /** Spool file path; truncated at each capture cycle. */
    std::string path;

    /**
     * Periods captured per program (must cover every period the
     * retrain specs score at; flagged programs lacking one are
     * rejected at flag()).
     */
    std::vector<std::uint32_t> periods;
};

/** Streams flagged programs to a corpus spool and replays them. */
class FlightRecorder
{
  public:
    explicit FlightRecorder(RecorderConfig config);

    /**
     * Capture @p prog into the current spool (windows for every
     * configured period, encoded immediately — no in-memory window
     * buffering). Returns Unavailable once the cycle's
     * kRecorderMaxPrograms ceiling is hit (the program is counted
     * dropped), or the writer's error.
     */
    support::Status flag(const features::ProgramFeatures &prog);

    /** Programs captured in the current cycle. */
    std::size_t programCount() const { return programs_; }

    /** Programs dropped over the ceiling in the current cycle. */
    std::size_t droppedPrograms() const { return dropped_; }

    /** True when nothing was captured this cycle. */
    bool empty() const { return programs_ == 0; }

    /**
     * Finalize the spool, reopen it through CorpusReader, and return
     * the flagged programs; the recorder then starts a fresh cycle.
     * Returns FailedPrecondition when the cycle is empty, or the
     * reader/writer error.
     */
    support::StatusOr<features::FeatureCorpus> drain();

    /** Content hash of the last drained spool (0 before any drain). */
    std::uint64_t lastContentHash() const { return lastHash_; }

  private:
    /** Open a fresh spool writer, truncating the file. */
    support::Status openSpool();

    RecorderConfig config_;
    std::optional<corpus::CorpusWriter> writer_;
    std::size_t programs_ = 0;
    std::size_t dropped_ = 0;
    std::uint64_t lastHash_ = 0;
};

} // namespace rhmd::pipeline

#endif // RHMD_PIPELINE_RECORDER_HH
