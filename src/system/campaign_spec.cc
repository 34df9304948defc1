#include "system/campaign_spec.hh"

#include <utility>

#include "common/json.hh"
#include "common/json_parse.hh"

namespace mondrian {

namespace {

constexpr const char *kSpecSchema = "mondrian-campaign-spec-v2";

/** The perf toggles of an exec point, by their spec member names. */
constexpr std::pair<const char *, int ExecOverride::*> kToggles[] = {
    {"coalesce", &ExecOverride::coalesce},
    {"rle", &ExecOverride::rle},
    {"skip", &ExecOverride::skip},
    {"eager", &ExecOverride::eager},
};

} // namespace

std::string
campaignSpecJson(const CampaignGrid &grid)
{
    JsonWriter w;
    w.setPreciseDoubles(true);
    w.beginObject();
    w.member("schema", kSpecSchema);
    w.key("grid");
    writeCampaignGrid(w, grid);
    w.key("exec_toggles").beginArray();
    for (const ExecOverride &ov : grid.execOverrides) {
        w.beginObject();
        for (const auto &[name, toggle] : kToggles) {
            if (ov.*toggle >= 0)
                w.member(name, std::int64_t{ov.*toggle});
        }
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

bool
parseCampaignSpec(const std::string &json_text, CampaignGrid &grid,
                  std::string &error)
{
    JsonValue doc;
    if (!parseJson(json_text, doc, error))
        return false;
    const JsonValue *schema = doc.find("schema");
    if (!schema || schema->asString() != kSpecSchema) {
        error = std::string("not a ") + kSpecSchema + " document";
        return false;
    }
    const JsonValue *block = doc.find("grid");
    if (!block) {
        error = "spec has no grid block";
        return false;
    }
    CampaignGrid parsed;
    if (!readCampaignGrid(*block, parsed, error))
        return false;

    const JsonValue *toggles = doc.find("exec_toggles");
    if (!toggles || !toggles->isArray() ||
        toggles->items.size() != parsed.execOverrides.size()) {
        error = "spec \"exec_toggles\" missing or not one object per "
                "exec point";
        return false;
    }
    for (std::size_t i = 0; i < toggles->items.size(); ++i) {
        const JsonValue &set = toggles->items[i];
        auto bad = [&error, i]() {
            error = "spec \"exec_toggles\" entry " + std::to_string(i) +
                    ": expected toggles coalesce/rle/skip/eager set to "
                    "0 or 1";
            return false;
        };
        if (!set.isObject())
            return bad();
        for (const auto &[name, value] : set.members) {
            int ExecOverride::*toggle = nullptr;
            for (const auto &[toggle_name, t] : kToggles)
                toggle = name == toggle_name ? t : toggle;
            if (!toggle || !value.isNumber() ||
                (value.text != "0" && value.text != "1"))
                return bad();
            parsed.execOverrides[i].*toggle = value.text == "1";
        }
    }
    grid = std::move(parsed);
    return true;
}

} // namespace mondrian
