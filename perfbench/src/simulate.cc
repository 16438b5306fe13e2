/**
 * @file
 * Workload "simulate": the execute -> PMU -> window loop alone.
 *
 * Set-up generates the standard-preset program population. Each rep
 * extracts one program per behaviour family with
 * features::extractProgram (120k-instruction traces, 5k/10k periods).
 * Rep r takes member r mod n of each family, and every rep executes
 * under its own execution salt derived from the seed, so no
 * (program, salt) pair repeats within a run. The visiting order does
 * not depend on the seed: the seed varies the executions, not which
 * programs a rep holds, which keeps the cost of rep r comparable
 * across seeds. The checked prefix is as long as the largest family,
 * so it extracts every program of the population at least once. No
 * training or serving runs here.
 */

#include <algorithm>

#include "corpus/cache.hh"
#include "features/corpus.hh"
#include "support/rng.hh"
#include "trace/generator.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace rhmd;

class Simulate final : public Workload
{
  public:
    explicit Simulate(std::uint64_t seed) : seed_(seed) {}

    void setup() override
    {
        const core::ExperimentConfig config =
            corpus::presetConfig("standard", false);
        extract_ = core::extractConfigOf(config);
        programs_ = trace::ProgramGenerator(core::generatorConfigOf(config))
                        .generateCorpus();
        std::uint32_t families = 0;
        for (const trace::Program &program : programs_)
            families = std::max(families, program.family + 1);
        byFamily_.assign(families, {});
        for (std::size_t i = 0; i < programs_.size(); ++i)
            byFamily_[programs_[i].family].push_back(i);
        largestFamily_ = 0;
        for (const std::vector<std::size_t> &members : byFamily_)
            largestFamily_ = std::max<std::uint32_t>(
                largestFamily_, static_cast<std::uint32_t>(members.size()));
    }

    void teardown() override
    {
        programs_ = {};
        byFamily_ = {};
    }

    RepResult runRep(std::uint32_t index, Tracer *tracer) override
    {
        features::ExtractConfig config = extract_;
        config.execSalt = SplitRng(seed_).seedAt(index);
        std::vector<features::ProgramFeatures> extracted;
        extracted.reserve(byFamily_.size());

        RepResult result;
        RepClock clock(tracer, index);
        for (const std::vector<std::size_t> &members : byFamily_) {
            SpanScope span(tracer, "features.extract", index);
            extracted.push_back(features::extractProgram(
                programs_[members[index % members.size()]], config));
            span.setUnits(config.traceInsts);
        }
        result.seconds = clock.stop();

        Digest digest;
        const std::uint32_t whole =
            *std::max_element(config.periods.begin(), config.periods.end());
        for (const features::ProgramFeatures &program : extracted) {
            digestProgram(digest, program);
            result.uarch.add(program, whole);
            for (std::uint32_t period : config.periods) {
                if (program.windows(period).size() !=
                    config.traceInsts / period)
                    result.valid = false;
            }
        }
        result.uarch.digest(digest);
        result.digest = digest.value();
        result.attempted = extracted.size();
        return result;
    }

    std::uint32_t checkedReps() const override { return largestFamily_; }

    std::vector<Metric> summarize(double rep_seconds,
                                  const std::vector<RepResult> &) const override
    {
        const double insts = static_cast<double>(byFamily_.size()) *
                             static_cast<double>(extract_.traceInsts);
        return {{"sim_minst_per_s", "Minst/s", insts / rep_seconds / 1e6}};
    }

  private:
    std::uint64_t seed_;
    features::ExtractConfig extract_;
    std::vector<trace::Program> programs_;
    std::vector<std::vector<std::size_t>> byFamily_;
    std::uint32_t largestFamily_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSimulate(std::uint64_t seed)
{
    return std::make_unique<Simulate>(seed);
}

} // namespace perfbench
