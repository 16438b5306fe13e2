/**
 * @file
 * Corpus reader implementation: loading, validation, streaming.
 */

#include "corpus/reader.hh"

#include <cstdio>
#include <cstring>
#include <utility>

#include "corpus/format.hh"
#include "support/logging.hh"

namespace rhmd::corpus
{

namespace
{

/** Bounds-checked forward cursor over the index section. */
struct Cursor
{
    const unsigned char *p;
    const unsigned char *end;

    bool take(std::size_t n, const unsigned char *&out)
    {
        if (static_cast<std::size_t>(end - p) < n)
            return false;
        out = p;
        p += n;
        return true;
    }

    bool u32(std::uint32_t &out)
    {
        const unsigned char *bytes = nullptr;
        if (!take(4, bytes))
            return false;
        out = loadLe32(bytes);
        return true;
    }

    bool u64(std::uint64_t &out)
    {
        const unsigned char *bytes = nullptr;
        if (!take(8, bytes))
            return false;
        out = loadLe64(bytes);
        return true;
    }
};

} // namespace

struct CorpusReader::Impl
{
    std::string path;
    std::vector<unsigned char> bytes;

    std::uint32_t version = 0;
    std::uint64_t configKey = 0;
    std::uint64_t contentHash = 0;
    std::uint64_t windowTotal = 0;
    std::vector<std::uint32_t> periods;
    std::vector<ProgramMeta> metas;
    /** runs[program][periodIndex] = (absolute offset, window count) */
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        runs;

    support::Status readFile();
};

/** Read this->path whole into bytes with one buffered read. */
support::Status
CorpusReader::Impl::readFile()
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return support::unavailableError("cannot open corpus file '",
                                         path, "'");
    std::fseek(file, 0, SEEK_END);
    const long where = std::ftell(file);
    if (where < 0) {
        std::fclose(file);
        return support::unavailableError("cannot size corpus file '",
                                         path, "'");
    }
    std::fseek(file, 0, SEEK_SET);
    bytes.resize(static_cast<std::size_t>(where));
    const std::size_t got =
        bytes.empty() ? 0
                      : std::fread(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    if (got != bytes.size())
        return support::dataLossError("short read of corpus file '",
                                      path, "'");
    return support::Status();
}

CorpusReader::CorpusReader(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl))
{
}

CorpusReader::CorpusReader(CorpusReader &&) noexcept = default;
CorpusReader::~CorpusReader() = default;

support::StatusOr<CorpusReader>
CorpusReader::open(const std::string &path)
{
    auto impl = std::make_unique<Impl>();
    impl->path = path;
    support::Status st = impl->readFile();
    if (!st.isOk())
        return st;
    const unsigned char *data = impl->bytes.data();
    const std::size_t size = impl->bytes.size();

    if (size < kHeaderBytes + kTrailerBytes)
        return support::dataLossError(
            "corpus file '", path, "' truncated: ", size,
            " bytes, need at least ", kHeaderBytes + kTrailerBytes);
    if (std::memcmp(data, kCorpusMagic, sizeof(kCorpusMagic)) != 0)
        return support::invalidArgumentError(
            "'", path, "' is not an RHMD-CORPUS file (bad magic)");
    impl->version = loadLe32(data + 12);
    if (impl->version != kCorpusFormatVersion)
        return support::failedPreconditionError(
            "corpus file '", path, "' has format version ",
            impl->version, "; this build reads version ",
            kCorpusFormatVersion);
    impl->configKey = loadLe64(data + 16);

    // Trailer directory, then prove the sections tile the file.
    const unsigned char *trailer = data + size - kTrailerBytes;
    const std::uint64_t data_offset = loadLe64(trailer + 0);
    const std::uint64_t data_bytes = loadLe64(trailer + 8);
    const std::uint64_t data_checksum = loadLe64(trailer + 16);
    const std::uint64_t index_offset = loadLe64(trailer + 24);
    const std::uint64_t index_bytes = loadLe64(trailer + 32);
    const std::uint64_t index_checksum = loadLe64(trailer + 40);
    const std::uint64_t header_checksum = loadLe64(trailer + 48);
    impl->windowTotal = loadLe64(trailer + 56);
    if (loadLe64(trailer + 64) != kTrailerMagic)
        return support::dataLossError(
            "corpus file '", path, "' has a corrupt trailer magic");
    if (data_offset != kHeaderBytes ||
        index_offset != data_offset + data_bytes ||
        index_offset + index_bytes != size - kTrailerBytes)
        return support::dataLossError(
            "corpus file '", path,
            "' section directory does not tile the file");
    if (data_bytes % kWindowRecordBytes != 0)
        return support::dataLossError(
            "corpus file '", path, "' data section is not a whole "
            "number of window records");

    // Checksums before any parsing: the index decode below only ever
    // sees bytes that already proved authentic.
    if (fnv1a(kFnvOffset, data, kHeaderBytes) != header_checksum)
        return support::dataLossError("corpus file '", path,
                                      "' header checksum mismatch");
    if (fnv1a(kFnvOffset, data + data_offset,
              static_cast<std::size_t>(data_bytes)) != data_checksum)
        return support::dataLossError("corpus file '", path,
                                      "' data checksum mismatch");
    if (fnv1a(kFnvOffset, data + index_offset,
              static_cast<std::size_t>(index_bytes)) != index_checksum)
        return support::dataLossError("corpus file '", path,
                                      "' index checksum mismatch");
    impl->contentHash = contentHashOf(impl->version, impl->configKey,
                                      data_checksum, index_checksum);

    // Index decode, bounds-checked (defense in depth — a writer bug
    // must surface as DataLoss here, never as UB downstream).
    Cursor cur{data + index_offset,
               data + index_offset + index_bytes};
    const auto truncated = [&]() {
        return support::dataLossError("corpus file '", path,
                                      "' index section truncated");
    };
    std::uint32_t n_periods = 0;
    if (!cur.u32(n_periods))
        return truncated();
    if (n_periods == 0 || n_periods > 1024)
        return support::dataLossError(
            "corpus file '", path, "' has an implausible period "
            "count ", n_periods);
    impl->periods.reserve(n_periods);
    for (std::uint32_t i = 0; i < n_periods; ++i) {
        std::uint32_t period = 0;
        if (!cur.u32(period))
            return truncated();
        if (period == 0)
            return support::dataLossError(
                "corpus file '", path, "' declares a zero period");
        impl->periods.push_back(period);
    }
    std::uint64_t n_programs = 0;
    if (!cur.u64(n_programs))
        return truncated();

    std::uint64_t expected_offset = data_offset;
    std::uint64_t window_sum = 0;
    impl->metas.reserve(static_cast<std::size_t>(n_programs));
    impl->runs.reserve(static_cast<std::size_t>(n_programs));
    for (std::uint64_t i = 0; i < n_programs; ++i) {
        ProgramMeta meta;
        std::uint32_t name_len = 0;
        if (!cur.u32(name_len))
            return truncated();
        const unsigned char *name = nullptr;
        if (!cur.take(name_len, name))
            return truncated();
        meta.name.assign(reinterpret_cast<const char *>(name),
                         name_len);
        std::uint32_t flags = 0;
        if (!cur.u32(flags))
            return truncated();
        meta.malware = (flags & 1U) != 0;
        if (!cur.u32(meta.family))
            return truncated();
        std::vector<std::pair<std::uint64_t, std::uint64_t>> prog_runs;
        prog_runs.reserve(impl->periods.size());
        for (std::size_t pd = 0; pd < impl->periods.size(); ++pd) {
            std::uint64_t count = 0;
            std::uint64_t offset = 0;
            if (!cur.u64(count) || !cur.u64(offset))
                return truncated();
            // Runs must tile the data section in index order: this
            // pins every data byte to exactly one window record.
            if (offset != expected_offset ||
                count > (data_offset + data_bytes - offset) /
                            kWindowRecordBytes)
                return support::dataLossError(
                    "corpus file '", path, "' window run for "
                    "program ", i, " lies outside the data section");
            expected_offset = offset + count * kWindowRecordBytes;
            window_sum += count;
            prog_runs.emplace_back(offset, count);
        }
        impl->metas.push_back(std::move(meta));
        impl->runs.push_back(std::move(prog_runs));
    }
    if (cur.p != cur.end)
        return support::dataLossError(
            "corpus file '", path, "' has ",
            static_cast<std::size_t>(cur.end - cur.p),
            " unparsed index bytes");
    if (expected_offset != data_offset + data_bytes)
        return support::dataLossError(
            "corpus file '", path, "' window runs do not cover the "
            "data section");
    if (window_sum != impl->windowTotal)
        return support::dataLossError(
            "corpus file '", path, "' trailer window total ",
            impl->windowTotal, " != index sum ", window_sum);
    return CorpusReader(std::move(impl));
}

std::uint32_t
CorpusReader::formatVersion() const
{
    return impl_->version;
}

std::uint64_t
CorpusReader::configKey() const
{
    return impl_->configKey;
}

std::uint64_t
CorpusReader::contentHash() const
{
    return impl_->contentHash;
}

std::uint64_t
CorpusReader::fileBytes() const
{
    return impl_->bytes.size();
}

const std::vector<std::uint32_t> &
CorpusReader::periods() const
{
    return impl_->periods;
}

std::size_t
CorpusReader::programCount() const
{
    return impl_->metas.size();
}

const CorpusReader::ProgramMeta &
CorpusReader::meta(std::size_t program) const
{
    panic_if(program >= impl_->metas.size(),
             "corpus program index out of range");
    return impl_->metas[program];
}

std::uint64_t
CorpusReader::windowTotal() const
{
    return impl_->windowTotal;
}

namespace
{

std::size_t
periodIndexOf(const std::vector<std::uint32_t> &periods,
              std::uint32_t period)
{
    for (std::size_t i = 0; i < periods.size(); ++i) {
        if (periods[i] == period)
            return i;
    }
    rhmd_panic("corpus has no windows for period ", period);
}

} // namespace

std::size_t
CorpusReader::windowCount(std::size_t program,
                          std::uint32_t period) const
{
    panic_if(program >= impl_->runs.size(),
             "corpus program index out of range");
    const std::size_t pd = periodIndexOf(impl_->periods, period);
    return static_cast<std::size_t>(impl_->runs[program][pd].second);
}

WindowStream
CorpusReader::stream(std::size_t program, std::uint32_t period) const
{
    panic_if(program >= impl_->runs.size(),
             "corpus program index out of range");
    const std::size_t pd = periodIndexOf(impl_->periods, period);
    const auto &[offset, count] = impl_->runs[program][pd];
    return WindowStream(impl_->bytes.data() + offset,
                        static_cast<std::size_t>(count));
}

bool
WindowStream::next(features::RawWindow &out)
{
    if (remaining_ == 0)
        return false;
    decodeWindow(cursor_, out);
    cursor_ += kWindowRecordBytes;
    --remaining_;
    return true;
}

features::FeatureCorpus
CorpusReader::materialize() const
{
    features::FeatureCorpus corpus;
    corpus.periods = impl_->periods;
    corpus.programs.resize(impl_->metas.size());
    for (std::size_t i = 0; i < impl_->metas.size(); ++i) {
        features::ProgramFeatures &prog = corpus.programs[i];
        const ProgramMeta &meta = impl_->metas[i];
        prog.name = meta.name;
        prog.malware = meta.malware;
        prog.family = meta.family;
        for (std::uint32_t period : impl_->periods) {
            std::vector<features::RawWindow> &windows =
                prog.byPeriod[period];
            windows.resize(windowCount(i, period));
            WindowStream ws = stream(i, period);
            for (features::RawWindow &window : windows)
                ws.next(window);
        }
    }
    return corpus;
}

support::Status
CorpusReader::verify() const
{
    std::uint64_t walked = 0;
    features::RawWindow window;
    for (std::size_t i = 0; i < programCount(); ++i) {
        for (std::uint32_t period : impl_->periods) {
            WindowStream ws = stream(i, period);
            while (ws.next(window)) {
                if (window.instCount == 0)
                    return support::dataLossError(
                        "corpus file '", impl_->path, "' program ", i,
                        " period ", period,
                        " contains an empty window");
                ++walked;
            }
        }
    }
    if (walked != impl_->windowTotal)
        return support::internalError(
            "corpus walk visited ", walked, " windows, trailer "
            "promised ", impl_->windowTotal);
    return support::Status();
}

} // namespace rhmd::corpus
