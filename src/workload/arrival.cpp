#include "workload/arrival.hpp"

namespace qlink::workload {

ClassMixProcess::ClassMixProcess(std::shared_ptr<ArrivalProcess> inner,
                                 std::vector<Class> classes)
    : inner_(std::move(inner)), classes_(std::move(classes)) {
  if (inner_ == nullptr) {
    throw std::invalid_argument("ClassMixProcess: null inner process");
  }
  if (classes_.empty()) {
    throw std::invalid_argument("ClassMixProcess: no classes");
  }
  weights_.reserve(classes_.size());
  double total = 0.0;
  for (const Class& c : classes_) {
    if (c.weight < 0.0) {
      throw std::invalid_argument("ClassMixProcess: negative weight");
    }
    total += c.weight;
    weights_.push_back(c.weight);
  }
  if (total <= 0.0) {
    throw std::invalid_argument("ClassMixProcess: zero total weight");
  }
}

RequestShape ClassMixProcess::sample_shape(sim::Random& random,
                                           sim::SimTime now) const {
  (void)now;
  const std::size_t i = random.discrete(weights_);
  RequestShape shape = classes_[i].shape;
  if (shape.endpoints.size() > 1) {
    const auto pick = static_cast<std::size_t>(random.uniform_int(
        0, static_cast<std::int64_t>(shape.endpoints.size()) - 1));
    shape.endpoints = {shape.endpoints[pick]};
  }
  return shape;
}

}  // namespace qlink::workload
