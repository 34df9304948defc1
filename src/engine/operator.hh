/**
 * @file
 * Operator execution products: per-phase kernel traces plus functional
 * results.
 *
 * Every operator implementation both transforms the data (functionally,
 * through the simulated address space) and records the kernel traces the
 * timing models replay. Phases mirror Table 2 of the paper: partitioning
 * (histogram build + data distribution; Join runs one shuffle per input
 * relation) and probe.
 */

#ifndef MONDRIAN_ENGINE_OPERATOR_HH
#define MONDRIAN_ENGINE_OPERATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "engine/relation.hh"
#include "mem/allocator.hh"

namespace mondrian {

/** Which half of Table 2 a phase belongs to. */
enum class PhaseKind
{
    kPartition,
    kProbe
};

/** One timed phase: traces per unit, plus shuffle metadata. */
struct PhaseExec
{
    std::string name;
    PhaseKind kind = PhaseKind::kProbe;
    /** One kernel trace per compute unit. */
    std::vector<KernelTrace> traces;
    /**
     * Permutable regions to arm before the phase: (global vault, region)
     * pairs. Empty when the phase does not shuffle permutably.
     */
    std::vector<std::pair<unsigned, PermutableRegion>> arming;
    /** Number of global synchronization barriers inside the phase. */
    unsigned barriers = 0;

    bool empty() const { return traces.empty(); }

    /** Sum of all units' trace summaries. */
    KernelTrace::Summary summarize() const;
};

/** Full execution of one operator: phases + functional outputs. */
struct OperatorExecution
{
    std::string op; ///< "scan", "sort", "groupby", "join"
    std::vector<PhaseExec> phases;

    // Functional results (checked by tests against references).
    std::uint64_t scanMatches = 0; ///< Scan: predicate hits
    std::uint64_t joinMatches = 0; ///< Join: output tuples
    std::uint64_t groupCount = 0;  ///< Group-by: distinct groups
    Relation output;               ///< operator output relation
    std::uint64_t aggChecksum = 0; ///< Group-by: checksum over aggregates
    /** Raw output regions (addr, bytes), e.g. Group-by record arrays. */
    std::vector<std::pair<Addr, std::uint64_t>> outputRegions;

    /** Total units (traces per phase). */
    std::size_t
    numUnits() const
    {
        return phases.empty() ? 0 : phases.front().traces.size();
    }
};

} // namespace mondrian

#endif // MONDRIAN_ENGINE_OPERATOR_HH
