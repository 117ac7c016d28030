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
 * True when replayPipelines(@p trace, @p pipes) with no extra sinks
 * would replay nothing: every pipeline is fresh, unobserved and
 * pure, and its full-trace result is already memoised on the trace.
 * Such a call only adopts results, so it is cheap enough to run on
 * the calling thread.
 */
bool
resultsMemoised(const cpu::TraceBuffer &trace,
                const std::vector<InOrderPipeline *> &pipes);

} // namespace sigcomp::pipeline

#endif // SIGCOMP_PIPELINE_RUNNER_H_
