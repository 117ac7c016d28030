/**
 * @file
 * libFuzzer harness for the plan-ingestion parser — the untrusted
 * half of the "sigcomp-study-plan-v2" wire contract (built only
 * under -DSIGCOMP_FUZZ=ON, which requires Clang).
 *
 * Properties enforced per input (the same ones the in-tree
 * deterministic storm in test_plan_json.cpp pins over 4096 mutants):
 *
 *  - the parser never crashes, hangs, or trips ASan, whatever the
 *    bytes;
 *  - every rejection is classified (kind != None) with an offset
 *    inside the input;
 *  - anything accepted re-serializes (or is refused with a
 *    classified error — escape sequences can decode to control
 *    bytes the ascii-clean serializer refuses), and an accepted
 *    re-serialization reparses into an equal plan;
 *  - json::Reader::skipValue, which plan ingestion never calls (it
 *    refuses unknown keys) but sigcomp_prof's trace reader does,
 *    ends every input in a classified, located verdict.
 *
 * Seed corpus: tests/golden/study_plan.json (the canonical document)
 * plus whatever the CI corpus cache has accumulated. Run locally:
 *
 *   cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
 *         -DSIGCOMP_FUZZ=ON
 *   cmake --build build-fuzz -j --target fuzz_plan_json
 *   mkdir -p corpus && cp tests/golden/study_plan.json corpus/
 *   ./build-fuzz/tests/fuzz_plan_json -max_total_time=300 corpus
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "analysis/plan_json.h"
#include "analysis/study_plan.h"
#include "common/json.h"

using sigcomp::analysis::parsePlanJson;
using sigcomp::analysis::PlanError;
using sigcomp::analysis::PlanErrorKind;
using sigcomp::analysis::planEquals;
using sigcomp::analysis::StudyPlan;
using sigcomp::analysis::writePlanJson;

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    const std::string_view doc(reinterpret_cast<const char *>(data),
                               size);
    if (sigcomp::json::depthWithinCap(doc)) {
        sigcomp::json::Error skip_err;
        sigcomp::json::Reader r(doc, &skip_err);
        if (!r.skipValue() &&
            (skip_err.kind == PlanErrorKind::None || skip_err.offset > size))
            __builtin_trap();
    }
    StudyPlan plan;
    PlanError err;
    if (!parsePlanJson(doc, &plan, &err)) {
        // A rejection must be classified and located.
        if (err.kind == PlanErrorKind::None || err.offset > size)
            __builtin_trap();
        return 0;
    }
    std::string wire;
    if (!writePlanJson(plan, &wire, &err)) {
        if (err.kind == PlanErrorKind::None)
            __builtin_trap();
        return 0;
    }
    StudyPlan again;
    if (!parsePlanJson(wire, &again, &err))
        __builtin_trap(); // the serializer's output must parse
    if (!planEquals(again, plan))
        __builtin_trap(); // ... into the same plan
    return 0;
}
