#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

namespace mondrian {

void
LatencySample::sortSamples() const
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
}

double
LatencySample::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0.0;
    for (Tick t : samples_)
        sum += static_cast<double>(t);
    return sum / static_cast<double>(samples_.size());
}

Tick
LatencySample::max() const
{
    if (samples_.empty())
        return 0;
    sortSamples();
    return samples_.back();
}

Tick
LatencySample::percentile(double p) const
{
    if (samples_.empty())
        return 0;
    sortSamples();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples_.size())));
    rank = std::clamp<std::size_t>(rank, 1, samples_.size());
    return samples_[rank - 1];
}

} // namespace mondrian
