/**
 * @file
 * rhmd-corpus: build and inspect RHMD-CORPUS window archives.
 *
 * Subcommands:
 *
 *   generate  stream one preset's extracted windows into a cache
 *             directory under its canonical config-key file name
 *             (corpus-<16-hex>.rhmdc), so later bench/experiment runs
 *             with RHMD_CORPUS_DIR pointed there replay it
 *             bit-identically instead of re-executing the programs;
 *             presets that share a config key share one file, which
 *             one run extracts once
 *   info      print a file's header, sizes, and per-period window
 *             counts
 *   verify    open + checksum + stream-walk files; non-zero exit on
 *             the first corrupt one (the CI cache-validation pass)
 *   cat       dump decoded window records as JSON lines
 *
 * Exit status: 0 on success, 1 on corrupt/mismatched files, 2 on
 * usage errors.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "corpus/cache.hh"
#include "corpus/format.hh"
#include "corpus/reader.hh"
#include "core/experiment.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/parse.hh"
#include "support/tracing.hh"

namespace
{

using namespace rhmd;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> [options]\n"
        "\n"
        "commands:\n"
        "  generate --preset NAME [options]\n"
        "      --preset NAME   standard|fig13|serve|all\n"
        "      --out DIR       output directory (default: $RHMD_CORPUS_DIR,\n"
        "                      then the current directory)\n"
        "      --smoke         use the smoke-sized variant of the preset\n"
        "      --threads N     extraction threads (default: RHMD_THREADS\n"
        "                      env, then hardware)\n"
        "      --json          print a JSON summary per file\n"
        "      --metrics DIR   write METRICS_rhmd_corpus.{json,prom} and\n"
        "                      the run manifest into DIR\n"
        "  info FILE [--json]\n"
        "  verify FILE [FILE...]\n"
        "  cat FILE [--program N] [--period P] [--limit N]\n",
        argv0);
}

int
cmdGenerate(int argc, char **argv)
{
    std::string preset;
    std::string out_dir;
    std::string metrics_dir;
    bool smoke = false;
    bool json = false;
    std::size_t threads = 0;
    auto need_value = [&](int i) { return i + 1 < argc; };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--preset" && need_value(i))
            preset = argv[++i];
        else if (arg == "--out" && need_value(i))
            out_dir = argv[++i];
        else if (arg == "--metrics" && need_value(i))
            metrics_dir = argv[++i];
        else if (arg == "--smoke")
            smoke = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--threads" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], threads))
                return 2;
        } else
            return 2;
    }
    if (preset.empty())
        return 2;
    if (out_dir.empty()) {
        const char *env = std::getenv("RHMD_CORPUS_DIR");
        out_dir = (env != nullptr && *env != '\0') ? env : ".";
    }
    support::setGlobalThreads(threads);

    std::vector<std::string> presets;
    if (preset == "all")
        presets = corpus::presetNames();
    else
        presets.push_back(preset);

    support::RunManifest manifest;
    manifest.tool = "rhmd_corpus";
    manifest.threads = support::globalThreads();
    manifest.addConfig("smoke", smoke ? "1" : "0");

    // Presets that resolve to one config key (standard and fig13 in
    // smoke mode) name one file: each key is extracted once, and a
    // later preset reports the summary of the file already written.
    std::map<std::uint64_t, corpus::WriteSummary> written;
    for (const std::string &name : presets) {
        const core::ExperimentConfig config =
            corpus::presetConfig(name, smoke);
        manifest.seed = config.seed;
        const std::uint64_t key = corpus::configKey(config);
        auto it = written.find(key);
        if (it == written.end()) {
            const auto fresh = corpus::writeExperimentCorpus(
                config, out_dir + "/" + corpus::cacheFileName(key));
            if (!fresh.isOk()) {
                std::fprintf(stderr, "rhmd-corpus: generate %s: %s\n",
                             name.c_str(),
                             fresh.status().message().c_str());
                return 1;
            }
            it = written.emplace(key, *fresh).first;
        }
        const corpus::WriteSummary &summary = it->second;
        manifest.addConfig("preset_" + name, summary.path);
        if (json) {
            std::printf(
                "{\"preset\": \"%s\", \"path\": \"%s\", "
                "\"config_key\": \"%016" PRIx64 "\", "
                "\"content_hash\": \"%016" PRIx64 "\", "
                "\"format_version\": %u, \"programs\": %zu, "
                "\"windows\": %" PRIu64 ", \"bytes\": %" PRIu64 "}\n",
                support::jsonEscape(name).c_str(),
                support::jsonEscape(summary.path).c_str(),
                summary.configKey, summary.contentHash,
                corpus::kCorpusFormatVersion, summary.programs,
                summary.windows, summary.bytes);
        } else {
            std::printf("%s: %s (%zu programs, %" PRIu64
                        " windows, %" PRIu64 " bytes)\n",
                        name.c_str(), summary.path.c_str(),
                        summary.programs, summary.windows,
                        summary.bytes);
        }
    }
    if (!metrics_dir.empty() &&
        !support::writeObservabilitySnapshot(metrics_dir, "rhmd_corpus",
                                             manifest))
        return 2;
    return 0;
}

int
cmdInfo(int argc, char **argv)
{
    std::string path;
    bool json = false;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json")
            json = true;
        else if (path.empty())
            path = arg;
        else
            return 2;
    }
    if (path.empty())
        return 2;
    const auto reader = corpus::CorpusReader::open(path);
    if (!reader.isOk()) {
        std::fprintf(stderr, "rhmd-corpus: %s: %s\n", path.c_str(),
                     reader.status().message().c_str());
        return 1;
    }
    std::size_t malware = 0;
    for (std::size_t p = 0; p < reader->programCount(); ++p)
        malware += reader->meta(p).malware ? 1U : 0U;
    if (json) {
        std::printf("{\"path\": \"%s\", \"format_version\": %u, "
                    "\"config_key\": \"%016" PRIx64 "\", "
                    "\"content_hash\": \"%016" PRIx64 "\", "
                    "\"bytes\": %" PRIu64 ", "
                    "\"programs\": %zu, \"malware\": %zu, "
                    "\"windows\": %" PRIu64 ", \"periods\": [",
                    support::jsonEscape(path).c_str(),
                    reader->formatVersion(), reader->configKey(),
                    reader->contentHash(), reader->fileBytes(),
                    reader->programCount(), malware,
                    reader->windowTotal());
        for (std::size_t i = 0; i < reader->periods().size(); ++i)
            std::printf("%s%u", i == 0 ? "" : ", ",
                        reader->periods()[i]);
        std::printf("]}\n");
        return 0;
    }
    std::printf("%s:\n  format version %u, config key %016" PRIx64
                ", content hash %016" PRIx64 "\n"
                "  %" PRIu64 " bytes, %zu programs (%zu malware), "
                "%" PRIu64 " windows\n",
                path.c_str(), reader->formatVersion(),
                reader->configKey(), reader->contentHash(),
                reader->fileBytes(), reader->programCount(), malware,
                reader->windowTotal());
    for (std::uint32_t period : reader->periods()) {
        std::uint64_t windows = 0;
        for (std::size_t p = 0; p < reader->programCount(); ++p)
            windows += reader->windowCount(p, period);
        std::printf("  period %u: %" PRIu64 " windows\n", period,
                    windows);
    }
    return 0;
}

int
cmdVerify(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i)
        paths.emplace_back(argv[i]);
    if (paths.empty())
        return 2;
    for (const std::string &path : paths) {
        const auto reader = corpus::CorpusReader::open(path);
        if (!reader.isOk()) {
            std::fprintf(stderr, "rhmd-corpus: %s: %s\n", path.c_str(),
                         reader.status().message().c_str());
            return 1;
        }
        const support::Status st = reader->verify();
        if (!st.isOk()) {
            std::fprintf(stderr, "rhmd-corpus: %s: %s\n", path.c_str(),
                         st.message().c_str());
            return 1;
        }
        std::printf("%s: OK (%zu programs, %" PRIu64 " windows)\n",
                    path.c_str(), reader->programCount(),
                    reader->windowTotal());
    }
    return 0;
}

int
cmdCat(int argc, char **argv)
{
    std::string path;
    std::size_t program = static_cast<std::size_t>(-1);
    std::uint32_t period = 0;
    std::size_t limit = static_cast<std::size_t>(-1);
    auto need_value = [&](int i) { return i + 1 < argc; };
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--program" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], program))
                return 2;
        } else if (arg == "--period" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], period))
                return 2;
        } else if (arg == "--limit" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], limit))
                return 2;
        } else if (path.empty())
            path = arg;
        else
            return 2;
    }
    if (path.empty())
        return 2;
    const auto reader = corpus::CorpusReader::open(path);
    if (!reader.isOk()) {
        std::fprintf(stderr, "rhmd-corpus: %s: %s\n", path.c_str(),
                     reader.status().message().c_str());
        return 1;
    }
    std::size_t printed = 0;
    features::RawWindow window;
    for (std::size_t p = 0; p < reader->programCount(); ++p) {
        if (program != static_cast<std::size_t>(-1) && p != program)
            continue;
        const auto &meta = reader->meta(p);
        for (std::uint32_t file_period : reader->periods()) {
            if (period != 0 && file_period != period)
                continue;
            corpus::WindowStream stream =
                reader->stream(p, file_period);
            std::size_t w = 0;
            while (printed < limit && stream.next(window)) {
                std::printf(
                    "{\"program\": \"%s\", \"malware\": %s, "
                    "\"period\": %u, \"window\": %zu, "
                    "\"inst_count\": %" PRIu64 ", \"cycles\": %.17g, "
                    "\"injected_frac\": %.17g, \"truncated\": %s}\n",
                    support::jsonEscape(meta.name).c_str(),
                    meta.malware ? "true" : "false",
                    file_period, w, window.instCount, window.cycles,
                    window.injectedFrac,
                    window.truncated ? "true" : "false");
                ++printed;
                ++w;
            }
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string command = argv[1];
    int rc = 2;
    if (command == "generate")
        rc = cmdGenerate(argc, argv);
    else if (command == "info")
        rc = cmdInfo(argc, argv);
    else if (command == "verify")
        rc = cmdVerify(argc, argv);
    else if (command == "cat")
        rc = cmdCat(argc, argv);
    if (rc == 2)
        usage(argv[0]);
    return rc;
}
