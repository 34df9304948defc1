#include "system/scenario.hh"

#include <cctype>

#include "common/grammar.hh"
#include "engine/spark.hh"

namespace mondrian {

const char *
opKindName(OpKind op)
{
    switch (op) {
      case OpKind::kScan:
        return "scan";
      case OpKind::kSort:
        return "sort";
      case OpKind::kGroupBy:
        return "groupby";
      case OpKind::kJoin:
        return "join";
    }
    return "?";
}

bool
opKindFromName(const std::string &name, OpKind &out)
{
    for (OpKind op : allOpKinds()) {
        if (name == opKindName(op)) {
            out = op;
            return true;
        }
    }
    return false;
}

const std::vector<OpKind> &
allOpKinds()
{
    static const std::vector<OpKind> ops = {OpKind::kScan, OpKind::kSort,
                                            OpKind::kGroupBy, OpKind::kJoin};
    return ops;
}

const char *
stageInputName(StageInput input)
{
    return input == StageInput::kGenerated ? "generated" : "prev";
}

bool
Scenario::degenerate() const
{
    return stages.size() == 1 &&
           stages.front().input == StageInput::kGenerated &&
           name == opKindName(stages.front().op);
}

Scenario
degenerateScenario(OpKind op)
{
    Scenario sc;
    sc.name = opKindName(op);
    sc.stages.push_back(
        ScenarioStage{opKindName(op), op, StageInput::kGenerated});
    return sc;
}

namespace {

OpKind
basicToOpKind(BasicOp basic)
{
    switch (basic) {
      case BasicOp::kScan:
        return OpKind::kScan;
      case BasicOp::kGroupBy:
        return OpKind::kGroupBy;
      case BasicOp::kJoin:
        return OpKind::kJoin;
      case BasicOp::kSort:
        return OpKind::kSort;
    }
    return OpKind::kScan;
}

/** Table 1 name in canonical stage-token form ("ReduceByKey" ->
 *  "reduceByKey"). */
std::string
tokenOf(const std::string &spark_name)
{
    std::string token = spark_name;
    if (!token.empty())
        token[0] = static_cast<char>(std::tolower(token[0]));
    return token;
}

ScenarioStage
stageOf(const std::string &token, OpKind op, StageInput input)
{
    return ScenarioStage{token, op, input};
}

} // namespace

const std::vector<std::pair<std::string, OpKind>> &
scenarioStageTokens()
{
    static const std::vector<std::pair<std::string, OpKind>> tokens = [] {
        std::vector<std::pair<std::string, OpKind>> out;
        for (const auto &[name, basic] : sparkOperatorTable())
            out.emplace_back(tokenOf(name), basicToOpKind(basic));
        return out;
    }();
    return tokens;
}

const std::vector<Scenario> &
scenarioPresets()
{
    static const std::vector<Scenario> presets = [] {
        std::vector<Scenario> out;
        // Clickstream sessions (the analytics_pipeline example): filter
        // events, join them with the user dimension, aggregate per user,
        // rank the aggregates.
        Scenario sessions;
        sessions.name = "sessions";
        sessions.stages = {
            stageOf("filter", OpKind::kScan, StageInput::kGenerated),
            stageOf("join", OpKind::kJoin, StageInput::kPrevOutput),
            stageOf("reduceByKey", OpKind::kGroupBy, StageInput::kPrevOutput),
            stageOf("sortByKey", OpKind::kSort, StageInput::kPrevOutput),
        };
        out.push_back(std::move(sessions));
        return out;
    }();
    return presets;
}

std::string
scenarioIdentity(const Scenario &scenario)
{
    if (scenario.degenerate())
        return scenario.name;
    std::string id = scenario.name + "{";
    for (std::size_t i = 0; i < scenario.stages.size(); ++i) {
        const ScenarioStage &st = scenario.stages[i];
        if (i > 0)
            id += ",";
        id += st.spark;
        id += ":";
        id += opKindName(st.op);
        id += ":";
        id += stageInputName(st.input);
    }
    return id + "}";
}

bool
scenarioFromSpec(const std::string &spec, Scenario &out, std::string &error)
{
    out = Scenario{};
    if (spec.empty()) {
        error = "empty scenario spec";
        return false;
    }

    // Degenerate single-op scenarios keep today's names byte-for-byte.
    OpKind op;
    if (opKindFromName(spec, op)) {
        out = degenerateScenario(op);
        return true;
    }

    for (const Scenario &preset : scenarioPresets()) {
        if (spec == preset.name) {
            out = preset;
            return true;
        }
    }

    // Chain grammar: ">"-joined stage tokens.
    for (const std::string &token : splitOn(spec, '>')) {
        if (token.empty()) {
            error = "scenario spec '" + spec +
                    "' has an empty stage (stray '>')";
            return false;
        }
        bool known = false;
        OpKind stage_op = OpKind::kScan;
        for (const auto &[name, kind] : scenarioStageTokens()) {
            if (token == name) {
                known = true;
                stage_op = kind;
                break;
            }
        }
        if (!known) {
            std::string valid;
            for (const auto &[name, kind] : scenarioStageTokens()) {
                (void)kind;
                valid += valid.empty() ? name : " " + name;
            }
            error = "unknown stage '" + token + "' in scenario spec '" +
                    spec + "' (stages: " + valid +
                    "; presets: sessions; single ops: scan sort groupby "
                    "join)";
            return false;
        }
        out.stages.push_back(stageOf(token, stage_op,
                                     out.stages.empty()
                                         ? StageInput::kGenerated
                                         : StageInput::kPrevOutput));
        out.name += out.name.empty() ? token : ">" + token;
    }
    return true;
}

} // namespace mondrian
