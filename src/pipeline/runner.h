/**
 * @file
 * Trace replay: run one captured trace through any number of
 * pipeline models in a single batched pass. Pipelines are grouped by
 * quanta key; each group's design-independent front half is recorded
 * once by a QuantaRecorder (or taken from the trace's cached
 * SharedQuanta record) and every pipeline consumes it.
 */

#ifndef SIGCOMP_PIPELINE_RUNNER_H_
#define SIGCOMP_PIPELINE_RUNNER_H_

#include <string>
#include <vector>

#include "cpu/functional_core.h"
#include "cpu/trace_buffer.h"
#include "pipeline/models.h"

namespace sigcomp::pipeline
{

/**
 * Replay a captured trace through pipelines (and any extra sinks)
 * in one batched pass. Each group's recorder keeps its own evolving
 * memory image (see QuantaRecorder), so results are bit-identical to
 * a live run of the same program.
 *
 * @p cancel aborts cooperatively at the next replay-block boundary.
 * An aborted replay throws CancelledError after suppressing every
 * publication side effect — no SharedQuanta record, no memoised
 * PipelineResult, no follower adoption — so a partial pass can never
 * poison the trace's annex cache; the pipelines hold partial state
 * and must be discarded by the caller.
 *
 * @return the functional run result recorded at capture.
 */
cpu::RunResult
replayPipelines(const cpu::TraceBuffer &trace,
                const std::vector<InOrderPipeline *> &pipes,
                const std::vector<cpu::TraceSink *> &extra_sinks = {},
                const CancelToken *cancel = nullptr);

/**
 * True when @p p's full-trace result may come from a memo: it is
 * fresh, unobserved and pure (see InOrderPipeline::planIsPure).
 */
bool memoEligible(const InOrderPipeline &p);

/**
 * Annex key under which replayPipelines() memoises a memo-eligible
 * @p p's full-trace PipelineResult (a `const PipelineResult`). Equal
 * keys mean bit-identical results on the same trace, names included.
 */
std::string resultKey(const InOrderPipeline &p);

} // namespace sigcomp::pipeline

#endif // SIGCOMP_PIPELINE_RUNNER_H_
