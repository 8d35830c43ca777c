// The removal pass of delta debugging, shared by every plan minimizer
// (stp::minimize_plan over engine fault plans, stp::minimize_fabric_plan
// over wall-clock fabric plans).
#pragma once

#include <cstddef>
#include <utility>

namespace stpx::stp {

/// Delete single actions from `plan` while the result still `fails`, to a
/// fixpoint: afterwards removing any one remaining action passes.  Probes
/// walk the actions front to back and restart at the front after every
/// accepted removal, so a deterministic `fails` yields a deterministic
/// plan and probe count.  `Plan` is any plan type with an `actions` vector.
template <class Plan, class Fails>
void remove_actions_to_fixpoint(Plan& plan, Fails&& fails) {
  std::size_t i = 0;
  while (i < plan.actions.size()) {
    Plan candidate = plan;
    candidate.actions.erase(candidate.actions.begin() +
                            static_cast<std::ptrdiff_t>(i));
    if (fails(candidate)) {
      plan = std::move(candidate);
      i = 0;
    } else {
      ++i;
    }
  }
}

}  // namespace stpx::stp
