/**
 * @file
 * Corpus reader.
 *
 * CorpusReader reads an RHMD-CORPUS file with one buffered read and
 * validates every byte up front — magic, version, section tiling, and
 * the per-section FNV-1a checksums — before exposing any data, so
 * downstream iteration can trust offsets unconditionally. Window
 * access goes through WindowStream, which decodes fixed-size records
 * straight out of the file bytes into a caller-owned RawWindow: no
 * per-window allocation, so iterating holds O(1) memory beyond the
 * file bytes themselves.
 *
 * Error taxonomy (mirrors ml/serialize.hh): wrong magic is
 * InvalidArgument, an unsupported format version is
 * FailedPrecondition, and truncation or any checksum mismatch is
 * DataLoss. open() never aborts the process on bad bytes.
 */

#ifndef RHMD_CORPUS_READER_HH
#define RHMD_CORPUS_READER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "features/corpus.hh"
#include "features/window.hh"
#include "support/status.hh"

namespace rhmd::corpus
{

/**
 * Forward iteration over one (program, period) run of window
 * records. Obtained from CorpusReader::stream(); decodes each record
 * on demand into the caller's RawWindow, allocation-free.
 */
class WindowStream
{
  public:
    /** Decode the next window into @p out; false when exhausted. */
    bool next(features::RawWindow &out);

    /** Windows not yet consumed. */
    std::size_t remaining() const { return remaining_; }

  private:
    friend class CorpusReader;
    WindowStream(const unsigned char *cursor, std::size_t count)
        : cursor_(cursor), remaining_(count)
    {
    }

    const unsigned char *cursor_;
    std::size_t remaining_;
};

/** Validated read-only view of one RHMD-CORPUS file. */
class CorpusReader
{
  public:
    /** Per-program metadata from the index section. */
    struct ProgramMeta
    {
        std::string name;
        bool malware = false;
        std::uint32_t family = 0;
    };

    /**
     * Read and validate @p path. See the file comment for the error
     * taxonomy; an OK result guarantees every section checksum
     * matched and every window run lies inside the data section.
     */
    static support::StatusOr<CorpusReader> open(const std::string &path);

    CorpusReader(CorpusReader &&) noexcept;
    ~CorpusReader();

    std::uint32_t formatVersion() const;
    std::uint64_t configKey() const;

    /** Content identity (format.hh contentHashOf) for manifests. */
    std::uint64_t contentHash() const;

    /** Total file size in bytes. */
    std::uint64_t fileBytes() const;

    const std::vector<std::uint32_t> &periods() const;
    std::size_t programCount() const;
    const ProgramMeta &meta(std::size_t program) const;

    /** Windows recorded for (program, period); total over periods(). */
    std::size_t windowCount(std::size_t program,
                            std::uint32_t period) const;
    std::uint64_t windowTotal() const;

    /**
     * Stream the windows of one (program, period) run. Panics on an
     * out-of-range program or unknown period (caller bug; the file's
     * own consistency was proven at open()).
     */
    WindowStream stream(std::size_t program, std::uint32_t period) const;

    /**
     * Decode the whole corpus into the in-memory FeatureCorpus the
     * experiment pipeline consumes — the replay path. This is the
     * one deliberately materializing accessor; everything else stays
     * streaming.
     */
    features::FeatureCorpus materialize() const;

    /**
     * Walk every window run end to end with a streaming decode and
     * re-count; O(1) memory. The integrity pass behind
     * `rhmd-corpus verify` (open() already proved the checksums, so
     * this exercises record decoding and the run directory).
     */
    support::Status verify() const;

  private:
    struct Impl;
    explicit CorpusReader(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
};

} // namespace rhmd::corpus

#endif // RHMD_CORPUS_READER_HH
