#include "netlayer/plane.hpp"

#include <stdexcept>
#include <string>

namespace qlink::netlayer {

void validate_route(const EntanglementPlane& plane, const char* who,
                    const E2eRequest& request, const std::vector<Hop>& route,
                    std::span<const double> hop_floors) {
  const auto fail = [who](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (request.src == request.dst) fail("src == dst");
  if (route.empty()) fail("empty route");
  if (!hop_floors.empty() && hop_floors.size() != route.size()) {
    fail("hop_floors must match the route length");
  }
  const auto exit_node = [&plane](const Hop& hop) {
    const auto [a, b] = plane.endpoints(hop.link);
    return hop.reversed ? a : b;
  };
  std::uint32_t at = request.src;
  for (std::size_t i = 0; i < route.size(); ++i) {
    const Hop& hop = route[i];
    if (hop.link >= plane.num_links()) fail("route names unknown link");
    const auto [a, b] = plane.endpoints(hop.link);
    if ((hop.reversed ? b : a) != at) {
      fail(i == 0 ? "route does not start at src" : "route is not contiguous");
    }
    at = hop.reversed ? a : b;
    // Simple walks only: a route revisiting a node (and so possibly a
    // link) would book one physical link twice for one request.
    bool revisit = at == request.src;
    for (std::size_t j = 0; j < i && !revisit; ++j) {
      revisit = exit_node(route[j]) == at;
    }
    if (revisit) fail("route revisits node " + std::to_string(at));
  }
  if (at != request.dst) fail("route does not end at dst");
}

}  // namespace qlink::netlayer
