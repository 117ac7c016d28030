#include "analysis/study_plan.h"

#include <utility>

namespace sigcomp::analysis
{

StudyPlan &
StudyPlan::activity(sig::Encoding enc)
{
    activity_.push_back(enc);
    return *this;
}

StudyPlan &
StudyPlan::cpi(std::vector<pipeline::Design> designs,
               pipeline::PipelineConfig config)
{
    cpi_.push_back({std::move(designs), {}, std::move(config)});
    return *this;
}

StudyPlan &
StudyPlan::cpi(std::vector<pipeline::StageWidths> points,
               pipeline::PipelineConfig config)
{
    cpi_.push_back({{}, std::move(points), std::move(config)});
    return *this;
}

StudyPlan &
StudyPlan::profile(std::vector<Profiler *> profilers)
{
    profilers_.insert(profilers_.end(), profilers.begin(),
                      profilers.end());
    return *this;
}

StudyPlan &
StudyPlan::energy(power::TechParams tech, pipeline::Design design,
                  sig::Encoding enc)
{
    energy_.push_back({tech, design, enc});
    return *this;
}

StudyPlan &
StudyPlan::workloads(std::vector<std::string> names)
{
    workloads_ = std::move(names);
    return *this;
}

StudyPlan &
StudyPlan::deadlineMs(std::uint64_t ms)
{
    deadlineMs_ = ms;
    hasDeadline_ = true;
    return *this;
}

StudyPlan &
StudyPlan::cancel(CancelToken token)
{
    cancel_ = std::move(token);
    return *this;
}

StudyPlan &
StudyPlan::evictAfterReplay(bool on)
{
    evictAfterReplay_ = on;
    return *this;
}

bool
StudyPlan::hasStudies() const
{
    return !activity_.empty() || !cpi_.empty() || !energy_.empty() ||
           !profilers_.empty();
}

} // namespace sigcomp::analysis
