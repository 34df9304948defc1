/**
 * @file
 * LatencySample: duration samples and their order statistics.
 */

#ifndef MONDRIAN_SIM_STATS_HH
#define MONDRIAN_SIM_STATS_HH

#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace mondrian {

/**
 * Accumulates duration samples (ticks) and answers order statistics.
 *
 * Percentiles use the nearest-rank definition — rank = ceil(p/100 * N),
 * the value at 1-based index `rank` of the sorted samples — so every
 * reported percentile is an actual observed sample, and the result is
 * exactly reproducible from the sample list (no interpolation).
 */
class LatencySample
{
  public:
    void
    record(Tick t)
    {
        samples_.push_back(t);
        sorted_ = false;
    }

    std::size_t count() const { return samples_.size(); }

    /** Mean over all samples; 0 when empty. */
    double mean() const;

    /** Largest sample; 0 when empty. */
    Tick max() const;

    /** Nearest-rank percentile for @p p in (0, 100]; 0 when empty. */
    Tick percentile(double p) const;

  private:
    void sortSamples() const;

    mutable std::vector<Tick> samples_;
    mutable bool sorted_ = true;
};

} // namespace mondrian

#endif // MONDRIAN_SIM_STATS_HH
