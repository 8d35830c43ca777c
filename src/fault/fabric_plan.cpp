#include "fault/fabric_plan.hpp"

#include <sstream>

#include "util/expect.hpp"
#include "util/strings.hpp"

namespace stpx::fault {

namespace {

std::string group_to_text(const std::vector<std::uint32_t>& g) {
  std::ostringstream os;
  bool first = true;
  for (const std::uint32_t h : g) {
    if (!first) os << ',';
    first = false;
    os << h;
  }
  return os.str();
}

std::vector<std::uint32_t> group_from_text(const std::string& s,
                                           const std::string& where) {
  std::vector<std::uint32_t> out;
  std::istringstream is(s);
  std::string tok;
  while (std::getline(is, tok, ',')) {
    const auto id = parse_int<std::uint32_t>(tok);
    STPX_EXPECT(id.has_value(),
                "fabric_plan_from_text: bad host id '" + tok + "'" + where);
    out.push_back(*id);
  }
  STPX_EXPECT(!out.empty(),
              "fabric_plan_from_text: empty partition group" + where);
  return out;
}

/// Parse "20ms" -> 20.  The unit is mandatory; anything else is malformed.
std::chrono::milliseconds ms_from_text(const std::string& s,
                                       const std::string& where) {
  const auto ms =
      s.size() > 2 && s.ends_with("ms") && s[0] != '-'
          ? parse_int<std::chrono::milliseconds::rep>(
                std::string_view(s).substr(0, s.size() - 2))
          : std::nullopt;
  STPX_EXPECT(ms.has_value(),
              "fabric_plan_from_text: bad time '" + s + "'" + where);
  return std::chrono::milliseconds(*ms);
}

}  // namespace

std::string to_text(const FabricFaultPlan& plan) {
  if (plan.actions.empty()) return "-";
  std::ostringstream os;
  bool first = true;
  for (const FabricFaultAction& a : plan.actions) {
    if (!first) os << "; ";
    first = false;
    os << to_cstr(a.kind) << '@' << a.at.count() << "ms";
    const bool windowed = a.kind != FabricFaultKind::kBackendCrash &&
                          a.kind != FabricFaultKind::kRejoin;
    if (windowed) os << '+' << a.len.count() << "ms";
    if (is_partition_fault(a.kind)) {
      os << ' ' << group_to_text(a.group_a) << '|' << group_to_text(a.group_b);
    } else {
      os << " b" << a.backend;
    }
  }
  return os.str();
}

FabricFaultPlan fabric_plan_from_text(const std::string& text) {
  FabricFaultPlan plan;
  // Normalize "; " separators to newlines, then parse line by line.
  std::string norm = text;
  for (std::size_t i = 0; i + 1 < norm.size(); ++i) {
    if (norm[i] == ';') norm[i] = '\n';
  }
  std::istringstream is(norm);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head) || head == "-" || head[0] == '#') continue;
    const std::string where = " (line " + std::to_string(lineno) + ")";

    // head is "<kind>@<at>ms" or "<kind>@<at>ms+<len>ms" or
    // "<kind>@<start>ms..<end>ms".
    const auto at_pos = head.find('@');
    STPX_EXPECT(at_pos != std::string::npos,
                "fabric_plan_from_text: missing '@' in '" + head + "'" + where);
    const std::string op = head.substr(0, at_pos);
    std::string when = head.substr(at_pos + 1);

    FabricFaultAction a;
    if (op == "backend-crash") {
      a.kind = FabricFaultKind::kBackendCrash;
    } else if (op == "probe-blackout") {
      a.kind = FabricFaultKind::kProbeBlackout;
    } else if (op == "router-split") {
      a.kind = FabricFaultKind::kRouterSplit;
    } else if (op == "partition") {
      a.kind = FabricFaultKind::kPartition;
    } else if (op == "partition-oneway") {
      a.kind = FabricFaultKind::kPartitionOneWay;
    } else if (op == "rejoin") {
      a.kind = FabricFaultKind::kRejoin;
    } else {
      STPX_EXPECT(false,
                  "fabric_plan_from_text: unknown fault '" + op + "'" + where);
    }

    const auto plus = when.find('+');
    const auto span = when.find("..");
    if (plus != std::string::npos) {
      a.at = ms_from_text(when.substr(0, plus), where);
      a.len = ms_from_text(when.substr(plus + 1), where);
    } else if (span != std::string::npos) {
      a.at = ms_from_text(when.substr(0, span), where);
      const auto end = ms_from_text(when.substr(span + 2), where);
      STPX_EXPECT(end >= a.at,
                  "fabric_plan_from_text: window ends before it starts" +
                      where);
      a.len = end - a.at;
    } else {
      a.at = ms_from_text(when, where);
    }

    std::string scope;
    STPX_EXPECT(static_cast<bool>(ls >> scope),
                "fabric_plan_from_text: missing scope" + where);
    if (is_partition_fault(a.kind)) {
      const auto bar = scope.find('|');
      STPX_EXPECT(bar != std::string::npos,
                  "fabric_plan_from_text: partition needs 'a|b' groups" +
                      where);
      a.group_a = group_from_text(scope.substr(0, bar), where);
      a.group_b = group_from_text(scope.substr(bar + 1), where);
    } else {
      STPX_EXPECT(scope.size() > 1 && scope[0] == 'b',
                  "fabric_plan_from_text: expected 'b<id>', got '" + scope +
                      "'" + where);
      const auto id =
          parse_int<std::uint32_t>(std::string_view(scope).substr(1));
      STPX_EXPECT(id.has_value(), "fabric_plan_from_text: bad backend id '" +
                                      scope + "'" + where);
      a.backend = *id;
    }
    plan.actions.push_back(std::move(a));
  }
  return plan;
}

}  // namespace stpx::fault
