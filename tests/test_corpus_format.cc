/**
 * @file
 * Tests of the RHMD-CORPUS binary format: writer/reader round trips
 * (bit-identical, including truncated tail windows), the typed error
 * taxonomy on corrupt bytes, an exhaustive one-byte corruption fuzz,
 * replay equality through the experiment pipeline, and the cache
 * plumbing (config keys, $RHMD_CORPUS_DIR resolution).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sys/stat.h>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/hmd.hh"
#include "corpus/cache.hh"
#include "corpus/format.hh"
#include "corpus/reader.hh"
#include "corpus/writer.hh"
#include "features/corpus.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "trace/generator.hh"

namespace
{

using namespace rhmd;
using support::StatusCode;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path,
          const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/** A corpus with partial tail windows (32000 % 5000 != 0). */
features::FeatureCorpus
tailCorpus(std::size_t benign = 4, std::size_t malware = 8)
{
    trace::GeneratorConfig gen;
    gen.seed = 91;
    gen.benignCount = benign;
    gen.malwareCount = malware;
    const auto programs =
        trace::ProgramGenerator(gen).generateCorpus();
    features::ExtractConfig extract;
    extract.periods = {5000, 10000};
    extract.traceInsts = 32000;
    extract.emitPartialWindows = true;
    return features::extractCorpus(programs, extract);
}

/** Write @p corpus through the streaming writer; returns the path. */
std::string
writeCorpusFile(const features::FeatureCorpus &corpus,
                const std::string &name, std::uint64_t key = 0xc0ffee)
{
    const std::string path = tempPath(name);
    auto writer = corpus::CorpusWriter::create(path, key, corpus.periods);
    EXPECT_TRUE(writer.isOk()) << writer.status().toString();
    for (const features::ProgramFeatures &prog : corpus.programs)
        EXPECT_TRUE(writer->append(prog).isOk());
    EXPECT_TRUE(writer->finalize().isOk());
    return path;
}

void
expectWindowsBitIdentical(const features::RawWindow &a,
                          const features::RawWindow &b)
{
    EXPECT_EQ(a.opcodeCounts, b.opcodeCounts);
    EXPECT_EQ(a.memDeltaBins, b.memDeltaBins);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.instCount, b.instCount);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cycles),
              std::bit_cast<std::uint64_t>(b.cycles));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.injectedFrac),
              std::bit_cast<std::uint64_t>(b.injectedFrac));
    EXPECT_EQ(a.truncated, b.truncated);
}

TEST(CorpusFormat, RoundTripIsBitIdenticalIncludingTruncatedTails)
{
    const features::FeatureCorpus corpus = tailCorpus();
    const std::string path = writeCorpusFile(corpus, "roundtrip.rhmdc");

    auto reader = corpus::CorpusReader::open(path);
    ASSERT_TRUE(reader.isOk()) << reader.status().toString();
    EXPECT_EQ(reader->formatVersion(), corpus::kCorpusFormatVersion);
    EXPECT_EQ(reader->configKey(), 0xc0ffeeu);
    EXPECT_EQ(reader->periods(), corpus.periods);
    ASSERT_EQ(reader->programCount(), corpus.programs.size());
    EXPECT_NE(reader->contentHash(), 0u);

    bool saw_truncated = false;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < corpus.programs.size(); ++i) {
        const features::ProgramFeatures &prog = corpus.programs[i];
        EXPECT_EQ(reader->meta(i).name, prog.name);
        EXPECT_EQ(reader->meta(i).malware, prog.malware);
        EXPECT_EQ(reader->meta(i).family, prog.family);
        for (std::uint32_t period : corpus.periods) {
            const auto &want = prog.windows(period);
            ASSERT_EQ(reader->windowCount(i, period), want.size());
            corpus::WindowStream stream = reader->stream(i, period);
            EXPECT_EQ(stream.remaining(), want.size());
            features::RawWindow got;
            for (const features::RawWindow &window : want) {
                ASSERT_TRUE(stream.next(got));
                expectWindowsBitIdentical(got, window);
                saw_truncated |= got.truncated;
                ++total;
            }
            EXPECT_FALSE(stream.next(got));
            EXPECT_EQ(stream.remaining(), 0u);
        }
    }
    // 32000 % 5000 != 0, so the tail windows must survive the trip.
    EXPECT_TRUE(saw_truncated);
    EXPECT_EQ(reader->windowTotal(), total);
    EXPECT_TRUE(reader->verify().isOk());
    EXPECT_GT(reader->fileBytes(), 0u);
}

TEST(CorpusFormat, MaterializeEqualsSource)
{
    const features::FeatureCorpus corpus = tailCorpus();
    const std::string path =
        writeCorpusFile(corpus, "materialize.rhmdc");
    auto reader = corpus::CorpusReader::open(path);
    ASSERT_TRUE(reader.isOk());
    const features::FeatureCorpus copy = reader->materialize();
    ASSERT_EQ(copy.programs.size(), corpus.programs.size());
    EXPECT_EQ(copy.periods, corpus.periods);
    for (std::size_t i = 0; i < corpus.programs.size(); ++i) {
        for (std::uint32_t period : corpus.periods) {
            const auto &a = copy.programs[i].windows(period);
            const auto &b = corpus.programs[i].windows(period);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t w = 0; w < a.size(); ++w)
                expectWindowsBitIdentical(a[w], b[w]);
        }
    }
}

TEST(CorpusFormat, WriterRejectsBadPeriods)
{
    const std::string path = tempPath("badperiods.rhmdc");
    EXPECT_EQ(corpus::CorpusWriter::create(path, 1, {})
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(corpus::CorpusWriter::create(path, 1, {5000, 5000})
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(corpus::CorpusWriter::create(path, 1, {0, 5000})
                  .status()
                  .code(),
              StatusCode::InvalidArgument);
}

TEST(CorpusFormat, WriterRequiresEveryPeriod)
{
    const features::FeatureCorpus corpus = tailCorpus(1, 1);
    const std::string path = tempPath("missingperiod.rhmdc");
    auto writer =
        corpus::CorpusWriter::create(path, 1, {5000, 10000, 20000});
    ASSERT_TRUE(writer.isOk());
    EXPECT_EQ(writer->append(corpus.programs[0]).code(),
              StatusCode::FailedPrecondition);
}

TEST(CorpusFormat, OpenErrorsAreTyped)
{
    EXPECT_EQ(corpus::CorpusReader::open(tempPath("nope.rhmdc"))
                  .status()
                  .code(),
              StatusCode::Unavailable);

    const features::FeatureCorpus corpus = tailCorpus(1, 2);
    const std::string path = writeCorpusFile(corpus, "typed.rhmdc");
    const std::vector<unsigned char> good = readFile(path);
    const std::string bad = tempPath("typed_bad.rhmdc");

    // Wrong magic: not an RHMD-CORPUS file at all.
    std::vector<unsigned char> bytes = good;
    bytes[0] ^= 0xff;
    writeFile(bad, bytes);
    EXPECT_EQ(corpus::CorpusReader::open(bad).status().code(),
              StatusCode::InvalidArgument);

    // Unsupported future version.
    bytes = good;
    bytes[12] = 0x7f;
    writeFile(bad, bytes);
    EXPECT_EQ(corpus::CorpusReader::open(bad).status().code(),
              StatusCode::FailedPrecondition);

    // Truncated mid-file.
    bytes = good;
    bytes.resize(bytes.size() - 10);
    writeFile(bad, bytes);
    EXPECT_EQ(corpus::CorpusReader::open(bad).status().code(),
              StatusCode::DataLoss);

    // A flipped data byte must fail the data checksum.
    bytes = good;
    bytes[corpus::kHeaderBytes + 3] ^= 0x01;
    writeFile(bad, bytes);
    const auto flipped = corpus::CorpusReader::open(bad);
    EXPECT_EQ(flipped.status().code(), StatusCode::DataLoss);
    EXPECT_NE(flipped.status().message().find("checksum"),
              std::string::npos);
}

TEST(CorpusFormat, EveryOneByteCorruptionIsDetected)
{
    // A deliberately tiny corpus so the exhaustive loop stays cheap.
    const features::FeatureCorpus corpus = tailCorpus(1, 1);
    const std::string path = writeCorpusFile(corpus, "fuzz.rhmdc");
    const std::vector<unsigned char> good = readFile(path);
    ASSERT_TRUE(corpus::CorpusReader::open(path).isOk());

    // Every byte of the file is covered either by a section checksum
    // (header/data/index; FNV-1a's per-byte step is a bijection of
    // the state, so a single flipped byte always changes it) or by
    // the trailer's structural equations. Both corruption patterns
    // must therefore be detected at EVERY offset.
    const std::string bad = tempPath("fuzz_bad.rhmdc");
    for (std::size_t offset = 0; offset < good.size(); ++offset) {
        for (const unsigned char mask : {0xffu, 0x01u}) {
            std::vector<unsigned char> bytes = good;
            bytes[offset] ^= mask;
            writeFile(bad, bytes);
            const auto reader = corpus::CorpusReader::open(bad);
            EXPECT_FALSE(reader.isOk())
                << "corruption at offset " << offset << " (mask 0x"
                << std::hex << static_cast<unsigned>(mask)
                << ") was not detected";
        }
    }
}

core::ExperimentConfig
tinyExperimentConfig()
{
    core::ExperimentConfig config;
    config.seed = 4242;
    config.benignCount = 8;
    config.malwareCount = 16;
    config.traceInsts = 30000;
    return config;
}

TEST(CorpusReplay, ExtractTrainDecideIsBitIdenticalAcrossThreadCounts)
{
    const core::ExperimentConfig config = tinyExperimentConfig();
    const std::string path = tempPath("replay.rhmdc");
    const auto summary = corpus::writeExperimentCorpus(config, path);
    ASSERT_TRUE(summary.isOk()) << summary.status().toString();
    EXPECT_EQ(summary->configKey, corpus::configKey(config));

    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
        support::setGlobalThreads(threads);
        const core::Experiment fresh = core::Experiment::build(config);
        core::ExperimentConfig replay_config = config;
        replay_config.corpusPath = path;
        const core::Experiment replay =
            core::Experiment::build(replay_config);

        // Same corpus bytes → same split → same windows.
        EXPECT_EQ(replay.split().victimTrain, fresh.split().victimTrain);
        EXPECT_EQ(replay.split().attackerTest,
                  fresh.split().attackerTest);
        ASSERT_EQ(replay.corpus().programs.size(),
                  fresh.corpus().programs.size());
        for (std::size_t i = 0; i < fresh.corpus().programs.size();
             ++i) {
            for (std::uint32_t period : config.periods) {
                const auto &a = replay.corpus().programs[i].windows(
                    period);
                const auto &b =
                    fresh.corpus().programs[i].windows(period);
                ASSERT_EQ(a.size(), b.size());
                for (std::size_t w = 0; w < a.size(); ++w)
                    expectWindowsBitIdentical(a[w], b[w]);
            }
        }

        // …and the same trained victim: scores bit-identical.
        const auto victim_fresh = fresh.trainVictim(
            "LR", features::FeatureKind::Instructions, 10000);
        const auto victim_replay = replay.trainVictim(
            "LR", features::FeatureKind::Instructions, 10000);
        for (const features::RawWindow &window :
             fresh.corpus().programs[0].windows(10000)) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(
                          victim_fresh->windowScore(window)),
                      std::bit_cast<std::uint64_t>(
                          victim_replay->windowScore(window)));
        }
    }
    support::setGlobalThreads(0);
}

TEST(CorpusReplay, WriteIsThreadCountInvariant)
{
    const core::ExperimentConfig config = tinyExperimentConfig();
    const std::string serial = tempPath("write_t1.rhmdc");
    const std::string parallel = tempPath("write_tn.rhmdc");
    support::setGlobalThreads(1);
    ASSERT_TRUE(corpus::writeExperimentCorpus(config, serial).isOk());
    support::setGlobalThreads(0);
    ASSERT_TRUE(
        corpus::writeExperimentCorpus(config, parallel).isOk());
    EXPECT_EQ(readFile(serial), readFile(parallel));
}

TEST(CorpusReplayDeathTest, ConfigKeyMismatchIsFatal)
{
    const core::ExperimentConfig config = tinyExperimentConfig();
    const std::string path = tempPath("mismatch.rhmdc");
    ASSERT_TRUE(corpus::writeExperimentCorpus(config, path).isOk());

    core::ExperimentConfig other = config;
    other.seed ^= 1;
    other.corpusPath = path;
    EXPECT_EXIT(core::Experiment::build(other),
                ::testing::ExitedWithCode(1),
                "different configuration");
}

TEST(CorpusCache, ConfigKeyCoversGeneratorAndExtractorFields)
{
    const core::ExperimentConfig base = tinyExperimentConfig();
    const std::uint64_t key = corpus::configKey(base);
    core::ExperimentConfig changed = base;
    changed.seed ^= 1;
    EXPECT_NE(corpus::configKey(changed), key);
    changed = base;
    changed.traceInsts += 1;
    EXPECT_NE(corpus::configKey(changed), key);
    changed = base;
    changed.periods.push_back(20000);
    EXPECT_NE(corpus::configKey(changed), key);
    changed = base;
    changed.hardFrac += 0.01;
    EXPECT_NE(corpus::configKey(changed), key);
    // Training-side knobs don't change the corpus bytes.
    changed = base;
    changed.opcodeTopK += 4;
    EXPECT_EQ(corpus::configKey(changed), key);

    EXPECT_EQ(corpus::cacheFileName(0xabcdULL),
              "corpus-000000000000abcd.rhmdc");
}

TEST(CorpusCache, ResolveReplayPathUsesEnvDirectory)
{
    const core::ExperimentConfig config = tinyExperimentConfig();
    const std::string dir = ::testing::TempDir() + "corpus_cache_dir";
    std::remove(
        (dir + "/" + corpus::cacheFileName(corpus::configKey(config)))
            .c_str());
    const std::uint64_t misses_before =
        support::metrics().counterValue("corpus.replay_miss");
    ::unsetenv("RHMD_CORPUS_DIR");
    EXPECT_EQ(corpus::resolveReplayPath(config), "");
    // No env var → not a replay request → no miss is counted.
    EXPECT_EQ(support::metrics().counterValue("corpus.replay_miss"),
              misses_before);

    ::setenv("RHMD_CORPUS_DIR", dir.c_str(), 1);
    // Directory exists but holds no matching file → fresh fallback,
    // counted: the replay CI leg asserts this counter never appears
    // in its metrics snapshots (a miss there means the cache key
    // drifted from the bench configuration).
    ASSERT_EQ(::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST, true);
    EXPECT_EQ(corpus::resolveReplayPath(config), "");
    EXPECT_EQ(support::metrics().counterValue("corpus.replay_miss"),
              misses_before + 1);

    const std::string path =
        dir + "/" + corpus::cacheFileName(corpus::configKey(config));
    ASSERT_TRUE(corpus::writeExperimentCorpus(config, path).isOk());
    // A key-matching hit resolves without touching the miss counter.
    EXPECT_EQ(corpus::resolveReplayPath(config), path);
    ::unsetenv("RHMD_CORPUS_DIR");
    EXPECT_EQ(corpus::resolveReplayPath(config), "");
    EXPECT_EQ(support::metrics().counterValue("corpus.replay_miss"),
              misses_before + 1);
}

TEST(CorpusCache, PresetsAreKnownAndSized)
{
    for (const std::string &name : corpus::presetNames()) {
        const core::ExperimentConfig full =
            corpus::presetConfig(name, false);
        const core::ExperimentConfig smoke =
            corpus::presetConfig(name, true);
        EXPECT_EQ(full.seed, 20171014u);
        EXPECT_LE(smoke.benignCount, full.benignCount);
        EXPECT_NE(corpus::configKey(full), corpus::configKey(smoke));
    }
    EXPECT_EQ(corpus::presetConfig("serve", false).traceInsts, 40000u);
}

TEST(CorpusCacheDeathTest, UnknownPresetIsFatal)
{
    EXPECT_EXIT(corpus::presetConfig("figure-nine", false),
                ::testing::ExitedWithCode(1), "unknown corpus preset");
}

} // namespace
