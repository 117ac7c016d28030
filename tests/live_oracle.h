/**
 * @file
 * The live-simulation oracle: run a program on the FunctionalCore
 * and feed its retirement stream straight into pipelines and sinks,
 * with no trace capture, store or replay in between. The product
 * engine (Session + StudyPlan over captured traces) must agree with
 * it bit for bit; the tests use it as ground truth and to run small
 * hand-assembled programs. The field-exact comparison helpers below
 * are how they check that agreement.
 */

#ifndef SIGCOMP_TESTS_LIVE_ORACLE_H_
#define SIGCOMP_TESTS_LIVE_ORACLE_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/report.h"
#include "analysis/session.h"
#include "common/logging.h"
#include "cpu/functional_core.h"
#include "mem/main_memory.h"
#include "pipeline/models.h"
#include "workloads/workload.h"

namespace sigcomp::live
{

/** Fan one retirement stream out to several sinks in order. */
class FanoutSink : public cpu::TraceSink
{
  public:
    explicit FanoutSink(std::vector<cpu::TraceSink *> sinks)
        : sinks_(std::move(sinks))
    {}

    void
    retire(const cpu::DynInstr &di) override
    {
        for (cpu::TraceSink *s : sinks_)
            s->retire(di);
    }

  private:
    std::vector<cpu::TraceSink *> sinks_;
};

/**
 * Execute @p program once, feeding every pipeline (bound to the live
 * memory image) and then every extra sink. Fatal if the program
 * fails its self-check or hits the instruction limit.
 */
inline cpu::RunResult
runPipelines(const isa::Program &program,
             const std::vector<pipeline::InOrderPipeline *> &pipes,
             const std::vector<cpu::TraceSink *> &extra_sinks = {})
{
    mem::MainMemory memory;
    cpu::FunctionalCore core(program, memory);

    std::vector<cpu::TraceSink *> sinks;
    for (pipeline::InOrderPipeline *p : pipes) {
        p->bind(program, memory);
        sinks.push_back(p);
    }
    sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());
    FanoutSink fanout(std::move(sinks));

    const cpu::RunResult r = core.run(&fanout);
    if (r.reason == cpu::StopReason::AssertFailed) {
        SC_FATAL("program '", program.name(), "' failed self-check: got ",
                 r.assertActual, ", expected ", r.assertExpected);
    }
    if (r.reason == cpu::StopReason::InstrLimit)
        SC_FATAL("program '", program.name(), "' hit instruction limit");
    return r;
}

/** Build @p designs with one config, run @p program live, collect. */
inline std::vector<pipeline::PipelineResult>
runDesigns(const isa::Program &program,
           const std::vector<pipeline::Design> &designs,
           const pipeline::PipelineConfig &config)
{
    std::vector<std::unique_ptr<pipeline::InOrderPipeline>> owned;
    std::vector<pipeline::InOrderPipeline *> raw;
    for (pipeline::Design d : designs) {
        owned.push_back(pipeline::makePipeline(d, config));
        raw.push_back(owned.back().get());
    }
    runPipelines(program, raw);

    std::vector<pipeline::PipelineResult> out;
    for (const auto &p : owned)
        out.push_back(p->result());
    return out;
}

/** Live counterpart of a StudyPlan::activity study over the suite. */
inline std::vector<analysis::ActivityRow>
activityStudy(sig::Encoding enc)
{
    const pipeline::Design design = (enc == sig::Encoding::Half1)
                                        ? pipeline::Design::HalfwordSerial
                                        : pipeline::Design::ByteSerial;
    std::vector<analysis::ActivityRow> rows;
    for (const std::string &name : workloads::Suite::names()) {
        const workloads::Workload w = workloads::Suite::build(name);
        auto pipe =
            pipeline::makePipeline(design, analysis::suiteConfig(enc));
        runPipelines(w.program, {pipe.get()});
        rows.push_back({name, pipe->result().activity});
    }
    return rows;
}

/**
 * Live counterpart of a StudyPlan::cpi study over the suite: the
 * CpiStudyResult::results grid, [workload][design].
 */
inline std::vector<std::vector<pipeline::PipelineResult>>
cpiStudy(const std::vector<pipeline::Design> &designs,
         const pipeline::PipelineConfig &config)
{
    std::vector<std::vector<pipeline::PipelineResult>> results;
    for (const std::string &name : workloads::Suite::names()) {
        results.push_back(
            runDesigns(workloads::Suite::build(name).program, designs,
                       config));
    }
    return results;
}

/** Feed the whole suite's live retirement stream, in suite order. */
inline void
profileSuite(const std::vector<cpu::TraceSink *> &sinks)
{
    for (const std::string &name : workloads::Suite::names())
        runPipelines(workloads::Suite::build(name).program, {}, sinks);
}

/** Field-exact comparison of two activity tallies. */
inline void
expectSameActivity(const pipeline::ActivityTotals &a,
                   const pipeline::ActivityTotals &b,
                   const std::string &where = "")
{
    const auto pair = [&](const pipeline::BitPair &x,
                          const pipeline::BitPair &y, const char *what) {
        EXPECT_EQ(x.compressed, y.compressed) << where << " " << what;
        EXPECT_EQ(x.baseline, y.baseline) << where << " " << what;
    };
    pair(a.fetch, b.fetch, "fetch");
    pair(a.rfRead, b.rfRead, "rfRead");
    pair(a.rfWrite, b.rfWrite, "rfWrite");
    pair(a.alu, b.alu, "alu");
    pair(a.dcData, b.dcData, "dcData");
    pair(a.dcTag, b.dcTag, "dcTag");
    pair(a.pcInc, b.pcInc, "pcInc");
    pair(a.latch, b.latch, "latch");
}

/** Field-exact comparison of two activity studies' rows. */
inline void
expectSameRows(const std::vector<analysis::ActivityRow> &a,
               const std::vector<analysis::ActivityRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].benchmark, b[i].benchmark);
        expectSameActivity(a[i].activity, b[i].activity, b[i].benchmark);
    }
}

/** Field-exact comparison of two full pipeline results. */
inline void
expectSameResult(const pipeline::PipelineResult &a,
                 const pipeline::PipelineResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.instructions, b.instructions) << b.name;
    EXPECT_EQ(a.cycles, b.cycles) << b.name;
    EXPECT_TRUE(a.stalls == b.stalls) << b.name;
    expectSameActivity(a.activity, b.activity, b.name);
    EXPECT_EQ(a.predictor.lookups, b.predictor.lookups) << b.name;
    EXPECT_EQ(a.predictor.mispredicts, b.predictor.mispredicts) << b.name;
    for (const auto &[x, y] : {std::pair{&a.l1i, &b.l1i},
                               std::pair{&a.l1d, &b.l1d},
                               std::pair{&a.l2, &b.l2}}) {
        EXPECT_EQ(x->accesses(), y->accesses()) << b.name;
        EXPECT_EQ(x->misses(), y->misses()) << b.name;
        EXPECT_EQ(x->fills, y->fills) << b.name;
        EXPECT_EQ(x->writebacks, y->writebacks) << b.name;
    }
}

/** Field-exact comparison of two CPI studies' results grids. */
inline void
expectSameResults(
    const std::vector<std::vector<pipeline::PipelineResult>> &a,
    const std::vector<std::vector<pipeline::PipelineResult>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        SCOPED_TRACE("workload " + std::to_string(w));
        ASSERT_EQ(a[w].size(), b[w].size());
        for (std::size_t c = 0; c < a[w].size(); ++c)
            expectSameResult(a[w][c], b[w][c]);
    }
}

/** Field-exact comparison of two CPI studies, benchmarks included. */
inline void
expectSameResults(const analysis::CpiStudyResult &a,
                  const analysis::CpiStudyResult &b)
{
    EXPECT_EQ(a.benchmarks, b.benchmarks);
    expectSameResults(a.results, b.results);
}

} // namespace sigcomp::live

#endif // SIGCOMP_TESTS_LIVE_ORACLE_H_
