/**
 * @file
 * Scenario: a declarative multi-stage analytics pipeline, the unit of
 * execution every run simulates.
 *
 * The paper evaluates four basic operators (Table 2), but real analytics
 * queries are *pipelines* of Spark-style dataflow operators (Table 1)
 * that lower onto them. A Scenario is a named, ordered stage list; each
 * stage names the Spark-style operator it models, the basic operator it
 * lowers onto, and where its input relation comes from — freshly
 * generated (first stage) or the previous stage's output, flowing
 * stage-to-stage through the simulated address space.
 *
 * Spec grammar (CLI `--scenario`, campaign axis labels):
 *
 *   scenario   := op-name | preset-name | chain
 *   op-name    := "scan" | "sort" | "groupby" | "join"   (degenerate:
 *                 one generated stage, reproduces the classic single-op
 *                 run byte-for-byte, including its report label)
 *   preset     := "sessions"                             (clickstream:
 *                 filter>join>reduceByKey>sortByKey)
 *   chain      := token (">" token)+  |  token
 *   token      := camelCase Table 1 operator, e.g. "filter",
 *                 "reduceByKey", "sortByKey", "join", "map", ...
 *
 * Chain stage 1 runs on a generated relation; every later stage consumes
 * its predecessor's output. Join stages build against the scenario's
 * dimension relation (the R side of the generated join pair) and probe
 * with the flowing relation.
 */

#ifndef MONDRIAN_SYSTEM_SCENARIO_HH
#define MONDRIAN_SYSTEM_SCENARIO_HH

#include <string>
#include <vector>

namespace mondrian {

/** The four basic operators (Table 2). */
enum class OpKind
{
    kScan,
    kSort,
    kGroupBy,
    kJoin
};

const char *opKindName(OpKind op);

/** Parse an operator name ("scan"/"sort"/"groupby"/"join"). */
bool opKindFromName(const std::string &name, OpKind &out);

/** All operators, in evaluation order. */
const std::vector<OpKind> &allOpKinds();

/** Where a stage's input relation comes from. */
enum class StageInput
{
    kGenerated,  ///< fresh relation from the workload generator
    kPrevOutput  ///< the previous stage's output relation
};

const char *stageInputName(StageInput input);

/** One pipeline stage: a Spark-style operator plus its input binding. */
struct ScenarioStage
{
    /** Canonical stage token (camelCase Table 1 name, e.g. "filter"). */
    std::string spark;
    /** Basic operator the stage lowers onto (Table 1 mapping). */
    OpKind op = OpKind::kScan;
    StageInput input = StageInput::kGenerated;
};

/** A named, declarative stage list — the unit of execution. */
struct Scenario
{
    /** Canonical label: the axis value in campaign reports. */
    std::string name;
    std::vector<ScenarioStage> stages;

    /**
     * True for the four classic single-op scenarios ("scan", "sort",
     * "groupby", "join"): one generated stage whose label is the basic
     * operator's own name. Degenerate scenarios reproduce the
     * pre-scenario single-operator run byte-for-byte.
     */
    bool degenerate() const;
};

/** The degenerate scenario of @p op (name == opKindName(op)). */
Scenario degenerateScenario(OpKind op);

/** Named multi-stage presets ("sessions"), in listing order. */
const std::vector<Scenario> &scenarioPresets();

/** Valid chain tokens with the basic op each lowers onto. */
const std::vector<std::pair<std::string, OpKind>> &scenarioStageTokens();

/**
 * Parse a scenario spec (grammar above) into @p out.
 * @return false with a human-readable @p error on malformed specs.
 */
bool scenarioFromSpec(const std::string &spec, Scenario &out,
                      std::string &error);

/**
 * Canonical resume/cache identity of a scenario: the bare name for
 * degenerate scenarios, and name + "{stage:op:input,...}" otherwise — two scenarios sharing a
 * name but differing in stage structure never collide.
 */
std::string scenarioIdentity(const Scenario &scenario);

} // namespace mondrian

#endif // MONDRIAN_SYSTEM_SCENARIO_HH
