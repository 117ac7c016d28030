#include "analysis/plan_json.h"

#include <bit>
#include <cmath>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/sha256.h"
#include "mem/hierarchy.h"

namespace sigcomp::analysis
{

namespace
{

constexpr char kSchemaId[] = "sigcomp-study-plan-v2";

// ---- enum name lookups (inverses of the *Name() helpers) ------------

bool
lookupEncoding(const std::string &name, sig::Encoding *out)
{
    for (sig::Encoding e : {sig::Encoding::Ext2, sig::Encoding::Ext3,
                            sig::Encoding::Half1}) {
        if (sig::encodingName(e) == name) {
            *out = e;
            return true;
        }
    }
    return false;
}

bool
lookupDesign(const std::string &name, pipeline::Design *out)
{
    for (pipeline::Design d : pipeline::allDesigns()) {
        if (pipeline::designName(d) == name) {
            *out = d;
            return true;
        }
    }
    return false;
}

bool
lookupPredictor(const std::string &name, pipeline::PredictorKind *out)
{
    for (pipeline::PredictorKind k :
         {pipeline::PredictorKind::None, pipeline::PredictorKind::NotTaken,
          pipeline::PredictorKind::Bimodal}) {
        if (pipeline::predictorName(k) == name) {
            *out = k;
            return true;
        }
    }
    return false;
}

// ---- shared value validation (parser AND serializer) ----------------
// The serializer enforces the same caps the parser does, so the
// round-trip guarantee is unconditional: any document it emits, the
// parser accepts.

bool
asciiClean(const std::string &s)
{
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20 || u >= json::kAsciiLimit)
            return false;
    }
    return true;
}

bool
techInRange(const power::TechParams &t)
{
    const double fields[] = {t.bitLineFf,     t.wordLineFfPerBit,
                             t.senseAmpFf,    t.latchFfPerBit,
                             t.logicFfPerBit, t.clockFfPerBit};
    if (!std::isfinite(t.vdd) || t.vdd <= 0.0 || t.vdd > kMaxPlanVdd)
        return false;
    for (const double v : fields) {
        if (!std::isfinite(v) || v < 0.0 || v > 1e9)
            return false;
    }
    return true;
}

bool
cyclesInRange(unsigned v)
{
    return v >= 1 && v <= kMaxPlanOpCycles;
}

bool
predictorEntriesInRange(unsigned v)
{
    return v >= 1 && v <= kMaxPlanPredictorEntries &&
           std::has_single_bit(v);
}

bool
rankingInRange(const std::vector<std::uint8_t> &ranking)
{
    if (ranking.size() > kMaxPlanRankingEntries)
        return false;
    bool seen[64] = {};
    for (const std::uint8_t v : ranking) {
        if (v >= 64 || seen[v])
            return false;
        seen[v] = true;
    }
    return true;
}

using json::Reader;

// ---- schema-specific parsers ----------------------------------------

bool
parseEncodingField(Reader &r, sig::Encoding *out)
{
    const std::size_t off = r.pos();
    std::string name;
    if (!r.parseString(&name))
        return false;
    if (!lookupEncoding(name, out)) {
        return r.fail(PlanErrorKind::OutOfRange, off,
                      "unknown encoding \"" + name +
                          "\" (want ext2, ext3 or half1)");
    }
    return true;
}

bool
parseDesignField(Reader &r, pipeline::Design *out)
{
    const std::size_t off = r.pos();
    std::string name;
    if (!r.parseString(&name))
        return false;
    if (!lookupDesign(name, out)) {
        return r.fail(PlanErrorKind::OutOfRange, off,
                      "unknown design \"" + name + "\"");
    }
    return true;
}

bool
parseActivityStudy(Reader &r, StudyPlan *plan)
{
    bool saw_encoding = false;
    sig::Encoding enc = sig::Encoding::Ext3;
    const std::size_t obj_off = r.pos();
    const bool ok = r.parseObject([&](const std::string &key,
                                      std::size_t key_off) {
        if (key == "encoding") {
            saw_encoding = true;
            return parseEncodingField(r, &enc);
        }
        return r.fail(PlanErrorKind::UnknownField, key_off,
                      "unknown activity key \"" + key + "\"");
    });
    if (!ok)
        return false;
    if (!saw_encoding) {
        return r.fail(PlanErrorKind::Syntax, obj_off,
                      "activity study is missing \"encoding\"");
    }
    plan->activity(enc);
    return true;
}

bool
parsePipelineConfig(Reader &r, pipeline::PipelineConfig *out)
{
    pipeline::PipelineConfig cfg;
    return r.parseObject([&](const std::string &key,
                             std::size_t key_off) -> bool {
        if (key == "encoding")
            return parseEncodingField(r, &cfg.encoding);
        if (key == "mult_cycles" || key == "div_cycles") {
            std::uint64_t v = 0;
            if (!r.parseU64(&v, kMaxPlanOpCycles, key.c_str()))
                return false;
            if (!cyclesInRange(static_cast<unsigned>(v))) {
                return r.fail(PlanErrorKind::OutOfRange, key_off,
                              key + " must be in [1, " +
                                  std::to_string(kMaxPlanOpCycles) +
                                  "]");
            }
            (key == "mult_cycles" ? cfg.multCycles : cfg.divCycles) =
                static_cast<unsigned>(v);
            return true;
        }
        if (key == "predictor") {
            const std::size_t off = r.pos();
            std::string name;
            if (!r.parseString(&name))
                return false;
            if (!lookupPredictor(name, &cfg.predictor)) {
                return r.fail(PlanErrorKind::OutOfRange, off,
                              "unknown predictor \"" + name +
                                  "\" (want none, not-taken or "
                                  "bimodal)");
            }
            return true;
        }
        if (key == "pht_entries" || key == "btb_entries") {
            std::uint64_t v = 0;
            if (!r.parseU64(&v, kMaxPlanPredictorEntries, key.c_str()))
                return false;
            if (!predictorEntriesInRange(static_cast<unsigned>(v))) {
                return r.fail(PlanErrorKind::OutOfRange, key_off,
                              key + " must be a power of two in [1, " +
                                  std::to_string(
                                      kMaxPlanPredictorEntries) +
                                  "]");
            }
            (key == "pht_entries" ? cfg.phtEntries : cfg.btbEntries) =
                static_cast<unsigned>(v);
            return true;
        }
        if (key == "compressor_ranking") {
            std::vector<std::uint8_t> ranking;
            const bool ok = r.parseArray(
                kMaxPlanRankingEntries, "compressor_ranking", [&] {
                    std::uint64_t v = 0;
                    if (!r.parseU64(&v, 63, "funct value"))
                        return false;
                    ranking.push_back(static_cast<std::uint8_t>(v));
                    return true;
                });
            if (!ok)
                return false;
            if (!rankingInRange(ranking)) {
                return r.fail(PlanErrorKind::OutOfRange, key_off,
                              "compressor_ranking entries must be "
                              "unique 6-bit funct values");
            }
            cfg.compressor = sig::InstrCompressor(ranking);
            return true;
        }
        return r.fail(PlanErrorKind::UnknownField, key_off,
                      "unknown config key \"" + key + "\"");
    }) && (*out = std::move(cfg), true);
}

bool
parseCpiStudy(Reader &r, StudyPlan *plan)
{
    std::vector<pipeline::Design> designs;
    pipeline::PipelineConfig cfg;
    const bool ok = r.parseObject([&](const std::string &key,
                                      std::size_t key_off) -> bool {
        if (key == "designs") {
            return r.parseArray(kMaxPlanDesigns, "designs", [&] {
                pipeline::Design d = pipeline::Design::ByteSerial;
                if (!parseDesignField(r, &d))
                    return false;
                designs.push_back(d);
                return true;
            });
        }
        if (key == "config")
            return parsePipelineConfig(r, &cfg);
        return r.fail(PlanErrorKind::UnknownField, key_off,
                      "unknown cpi key \"" + key + "\"");
    });
    if (!ok)
        return false;
    plan->cpi(std::move(designs), std::move(cfg));
    return true;
}

bool
parseTechParams(Reader &r, power::TechParams *out)
{
    power::TechParams t;
    const std::size_t obj_off = r.pos();
    const bool ok = r.parseObject([&](const std::string &key,
                                      std::size_t key_off) -> bool {
        struct
        {
            const char *name;
            double *slot;
        } fields[] = {
            {"vdd", &t.vdd},
            {"bit_line_ff", &t.bitLineFf},
            {"word_line_ff_per_bit", &t.wordLineFfPerBit},
            {"sense_amp_ff", &t.senseAmpFf},
            {"latch_ff_per_bit", &t.latchFfPerBit},
            {"logic_ff_per_bit", &t.logicFfPerBit},
            {"clock_ff_per_bit", &t.clockFfPerBit},
        };
        for (const auto &f : fields) {
            if (key == f.name)
                return r.parseDouble(f.slot, f.name);
        }
        return r.fail(PlanErrorKind::UnknownField, key_off,
                      "unknown tech key \"" + key + "\"");
    });
    if (!ok)
        return false;
    if (!techInRange(t)) {
        return r.fail(PlanErrorKind::OutOfRange, obj_off,
                      "tech parameters out of range (vdd in (0, " +
                          std::to_string(kMaxPlanVdd) +
                          "]; capacitances in [0, 1e9] fF)");
    }
    *out = t;
    return true;
}

bool
parseEnergyStudy(Reader &r, StudyPlan *plan)
{
    pipeline::Design design = pipeline::Design::ByteSerial;
    sig::Encoding enc = sig::Encoding::Ext3;
    power::TechParams tech;
    const bool ok = r.parseObject([&](const std::string &key,
                                      std::size_t key_off) -> bool {
        if (key == "design")
            return parseDesignField(r, &design);
        if (key == "encoding")
            return parseEncodingField(r, &enc);
        if (key == "tech")
            return parseTechParams(r, &tech);
        return r.fail(PlanErrorKind::UnknownField, key_off,
                      "unknown energy key \"" + key + "\"");
    });
    if (!ok)
        return false;
    plan->energy(tech, design, enc);
    return true;
}

} // namespace

bool
parsePlanJson(std::string_view json, StudyPlan *out, PlanError *error)
{
    SC_ASSERT(out != nullptr, "parsePlanJson needs an output plan");
    Reader r(json, error);
    if (json.size() > kMaxPlanJsonBytes) {
        return r.fail(PlanErrorKind::OutOfRange, 0,
                      "document larger than " +
                          std::to_string(kMaxPlanJsonBytes) +
                          " bytes");
    }
    if (!json::depthWithinCap(json)) {
        return r.fail(PlanErrorKind::OutOfRange, 0,
                      "nesting deeper than " +
                          std::to_string(kMaxPlanJsonDepth) +
                          " levels");
    }

    StudyPlan plan;
    bool saw_schema = false;
    const bool ok = r.parseObject([&](const std::string &key,
                                      std::size_t key_off) -> bool {
        if (key == "schema") {
            const std::size_t off = r.pos();
            std::string id;
            if (!r.parseString(&id))
                return false;
            if (id != kSchemaId) {
                return r.fail(PlanErrorKind::Unsupported, off,
                              "unsupported schema \"" + id +
                                  "\" (this build reads \"" +
                                  kSchemaId + "\")");
            }
            saw_schema = true;
            return true;
        }
        if (key == "workloads") {
            std::vector<std::string> names;
            const bool arr_ok = r.parseArray(
                kMaxPlanWorkloads, "workloads", [&] {
                    std::string name;
                    if (!r.parseString(&name))
                        return false;
                    names.push_back(std::move(name));
                    return true;
                });
            if (!arr_ok)
                return false;
            if (!names.empty())
                plan.workloads(std::move(names));
            return true;
        }
        if (key == "evict_after_replay") {
            bool v = false;
            if (!r.parseBool(&v))
                return false;
            plan.evictAfterReplay(v);
            return true;
        }
        if (key == "deadline_ms") {
            std::uint64_t v = 0;
            if (!r.parseU64(&v, kMaxPlanDeadlineMs, "deadline_ms"))
                return false;
            plan.deadlineMs(v);
            return true;
        }
        if (key == "activity") {
            return r.parseArray(kMaxPlanStudies, "activity",
                                [&] { return parseActivityStudy(r, &plan); });
        }
        if (key == "cpi") {
            return r.parseArray(kMaxPlanStudies, "cpi",
                                [&] { return parseCpiStudy(r, &plan); });
        }
        if (key == "energy") {
            return r.parseArray(kMaxPlanStudies, "energy",
                                [&] { return parseEnergyStudy(r, &plan); });
        }
        return r.fail(PlanErrorKind::UnknownField, key_off,
                      "unknown plan key \"" + key + "\"");
    });
    if (!ok)
        return false;
    if (!r.atEnd()) {
        return r.fail(PlanErrorKind::Syntax, r.pos(),
                      "trailing content after the plan object");
    }
    if (!saw_schema) {
        return r.fail(PlanErrorKind::Unsupported, 0,
                      std::string("missing required \"schema\" key "
                                  "(want \"") +
                          kSchemaId + "\")");
    }
    *out = std::move(plan);
    return true;
}

namespace
{

bool
serializeFail(PlanError *error, PlanErrorKind kind, std::string msg)
{
    if (error != nullptr)
        *error = {kind, 0, std::move(msg)};
    return false;
}

} // namespace

bool
writePlanJson(const StudyPlan &plan, std::string *out, PlanError *error)
{
    SC_ASSERT(out != nullptr, "writePlanJson needs an output string");
    // Process-local state the wire cannot express. Refusing here
    // is what makes the round-trip guarantee unconditional.
    if (!plan.profilers_.empty()) {
        return serializeFail(error, PlanErrorKind::Unsupported,
                             "profilers are process-local pointers "
                             "and cannot be serialized");
    }
    if (plan.cancel_.canStop()) {
        return serializeFail(error, PlanErrorKind::Unsupported,
                             "cancellation tokens are runtime handles "
                             "and cannot be serialized (use "
                             "deadline_ms for a portable budget)");
    }
    for (const StudyPlan::CpiSpec &s : plan.cpi_) {
        if (!s.widths.empty()) {
            return serializeFail(error, PlanErrorKind::Unsupported,
                                 "cpi width points are library-only: " +
                                     std::string(kSchemaId) +
                                     " carries named designs");
        }
        if (s.config.memory != mem::HierarchyParams{}) {
            return serializeFail(error, PlanErrorKind::Unsupported,
                                 "custom memory hierarchies are not "
                                 "expressible in " +
                                     std::string(kSchemaId));
        }
        if (!cyclesInRange(s.config.multCycles) ||
            !cyclesInRange(s.config.divCycles) ||
            !predictorEntriesInRange(s.config.phtEntries) ||
            !predictorEntriesInRange(s.config.btbEntries) ||
            !rankingInRange(s.config.compressor.ranking())) {
            return serializeFail(error, PlanErrorKind::OutOfRange,
                                 "cpi config value outside the wire "
                                 "caps");
        }
    }
    if (plan.workloads_.size() > kMaxPlanWorkloads ||
        plan.activity_.size() > kMaxPlanStudies ||
        plan.cpi_.size() > kMaxPlanStudies ||
        plan.energy_.size() > kMaxPlanStudies) {
        return serializeFail(error, PlanErrorKind::OutOfRange,
                             "plan exceeds a wire count cap");
    }
    for (const StudyPlan::CpiSpec &s : plan.cpi_) {
        if (s.designs.size() > kMaxPlanDesigns) {
            return serializeFail(error, PlanErrorKind::OutOfRange,
                                 "cpi designs exceed the wire cap");
        }
    }
    for (const std::string &w : plan.workloads_) {
        if (w.size() > kMaxPlanStringBytes || !asciiClean(w)) {
            return serializeFail(error, PlanErrorKind::OutOfRange,
                                 "workload name \"" + w +
                                     "\" is not wire-clean (ASCII, "
                                     "<= " +
                                     std::to_string(
                                         kMaxPlanStringBytes) +
                                     " bytes)");
        }
    }
    for (const StudyPlan::EnergySpec &e : plan.energy_) {
        if (!techInRange(e.tech)) {
            return serializeFail(error, PlanErrorKind::OutOfRange,
                                 "energy tech parameters outside the "
                                 "wire caps");
        }
    }
    if (plan.hasDeadline_ && plan.deadlineMs_ > kMaxPlanDeadlineMs) {
        return serializeFail(error, PlanErrorKind::OutOfRange,
                             "deadline_ms exceeds the wire cap");
    }

    using json::Exact;
    using json::Quoted;
    std::string &o = *out;
    o.clear();
    o.reserve(1024);
    json::append(o, "{\n  \"schema\": \"", kSchemaId, "\",\n",
                 "  \"workloads\": [");
    for (std::size_t i = 0; i < plan.workloads_.size(); ++i)
        json::append(o, i ? ", " : "", Quoted{plan.workloads_[i]});
    json::append(o, "],\n", "  \"evict_after_replay\": ",
                 plan.evictAfterReplay_ ? "true" : "false", ",\n");
    if (plan.hasDeadline_)
        json::append(o, "  \"deadline_ms\": ", plan.deadlineMs_, ",\n");
    o += "  \"activity\": [";
    for (std::size_t i = 0; i < plan.activity_.size(); ++i) {
        json::append(o, i ? ", " : "", "{\"encoding\": \"",
                     sig::encodingName(plan.activity_[i]), "\"}");
    }
    o += "],\n";
    o += "  \"cpi\": [";
    for (std::size_t i = 0; i < plan.cpi_.size(); ++i) {
        const StudyPlan::CpiSpec &s = plan.cpi_[i];
        json::append(o, i ? "," : "", "\n    {\"designs\": [");
        for (std::size_t d = 0; d < s.designs.size(); ++d) {
            json::append(o, d ? ", " : "", "\"",
                         pipeline::designName(s.designs[d]), "\"");
        }
        json::append(o, "],\n     \"config\": {\"encoding\": \"",
                     sig::encodingName(s.config.encoding),
                     "\", \"mult_cycles\": ", s.config.multCycles,
                     ", \"div_cycles\": ", s.config.divCycles,
                     ", \"predictor\": \"",
                     pipeline::predictorName(s.config.predictor),
                     "\", \"pht_entries\": ", s.config.phtEntries,
                     ", \"btb_entries\": ", s.config.btbEntries,
                     ", \"compressor_ranking\": [");
        const std::vector<std::uint8_t> &rank =
            s.config.compressor.ranking();
        for (std::size_t j = 0; j < rank.size(); ++j)
            json::append(o, j ? ", " : "", rank[j]);
        o += "]}}";
    }
    json::append(o, plan.cpi_.empty() ? "" : "\n  ", "],\n");
    o += "  \"energy\": [";
    for (std::size_t i = 0; i < plan.energy_.size(); ++i) {
        const StudyPlan::EnergySpec &e = plan.energy_[i];
        json::append(o, i ? "," : "", "\n    {\"design\": \"",
                     pipeline::designName(e.design), "\", \"encoding\": \"",
                     sig::encodingName(e.enc), "\",\n     \"tech\": {\"vdd\": ",
                     Exact{e.tech.vdd});
        const struct
        {
            const char *name;
            double v;
        } caps[] = {
            {"bit_line_ff", e.tech.bitLineFf},
            {"word_line_ff_per_bit", e.tech.wordLineFfPerBit},
            {"sense_amp_ff", e.tech.senseAmpFf},
            {"latch_ff_per_bit", e.tech.latchFfPerBit},
            {"logic_ff_per_bit", e.tech.logicFfPerBit},
            {"clock_ff_per_bit", e.tech.clockFfPerBit},
        };
        for (const auto &c : caps)
            json::append(o, ", \"", c.name, "\": ", Exact{c.v});
        o += "}}";
    }
    json::append(o, plan.energy_.empty() ? "" : "\n  ", "]\n}\n");
    return true;
}

bool
planEquals(const StudyPlan &a, const StudyPlan &b)
{
    auto configEqual = [](const pipeline::PipelineConfig &x,
                          const pipeline::PipelineConfig &y) {
        return x.encoding == y.encoding &&
               x.memory == y.memory &&
               x.multCycles == y.multCycles &&
               x.divCycles == y.divCycles &&
               x.compressor.ranking() == y.compressor.ranking() &&
               x.predictor == y.predictor &&
               x.phtEntries == y.phtEntries &&
               x.btbEntries == y.btbEntries;
    };
    if (a.activity_ != b.activity_)
        return false;
    if (a.cpi_.size() != b.cpi_.size())
        return false;
    for (std::size_t i = 0; i < a.cpi_.size(); ++i) {
        if (a.cpi_[i].designs != b.cpi_[i].designs ||
            a.cpi_[i].widths != b.cpi_[i].widths ||
            !configEqual(a.cpi_[i].config, b.cpi_[i].config))
            return false;
    }
    if (a.energy_.size() != b.energy_.size())
        return false;
    for (std::size_t i = 0; i < a.energy_.size(); ++i) {
        const StudyPlan::EnergySpec &x = a.energy_[i];
        const StudyPlan::EnergySpec &y = b.energy_[i];
        if (x.tech != y.tech || x.design != y.design || x.enc != y.enc)
            return false;
    }
    // The cancel token is deliberately NOT compared: it is a runtime
    // handle to live process state, not plan data.
    return a.profilers_ == b.profilers_ && a.workloads_ == b.workloads_ &&
           a.evictAfterReplay_ == b.evictAfterReplay_ &&
           a.deadlineMs_ == b.deadlineMs_ &&
           a.hasDeadline_ == b.hasDeadline_;
}

bool
planFingerprint(const StudyPlan &plan, std::string *hex,
                PlanError *error)
{
    SC_ASSERT(hex != nullptr, "planFingerprint needs an output string");
    // The token is a runtime handle, not plan content (planEquals
    // ignores it too) — drop it so a daemon-attached disconnect
    // token does not change the fingerprint. Only a plan that holds
    // one pays for the copy.
    std::string json;
    if (plan.cancel_.canStop()) {
        StudyPlan canonical = plan;
        canonical.cancel_ = CancelToken{};
        if (!writePlanJson(canonical, &json, error))
            return false;
    } else if (!writePlanJson(plan, &json, error)) {
        return false;
    }
    *hex = Sha256::hex(json);
    return true;
}

} // namespace sigcomp::analysis
