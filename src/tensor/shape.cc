#include "tensor/shape.h"

#include <algorithm>
#include <sstream>

namespace mocograd {

std::string Shape::ToString() const {
  std::ostringstream oss;
  oss << "[";
  for (size_t i = 0; i < dims_.size(); ++i) {
    if (i) oss << ", ";
    oss << dims_[i];
  }
  oss << "]";
  return oss.str();
}

Shape Shape::Broadcast(const Shape& a, const Shape& b) {
  const int rank = std::max(a.Rank(), b.Rank());
  std::vector<int64_t> out(rank, 1);
  for (int i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.Rank() ? 1 : a.Dim(i - (rank - a.Rank()));
    const int64_t db = i < rank - b.Rank() ? 1 : b.Dim(i - (rank - b.Rank()));
    MG_CHECK(da == db || da == 1 || db == 1, "cannot broadcast ",
             a.ToString(), " with ", b.ToString());
    out[i] = da == 1 ? db : da;  // a 0-extent axis stays 0
  }
  return Shape(std::move(out));
}

bool Shape::BroadcastsTo(const Shape& a, const Shape& target) {
  if (a.Rank() > target.Rank()) return false;
  const int off = target.Rank() - a.Rank();
  for (int i = 0; i < a.Rank(); ++i) {
    if (a.Dim(i) != 1 && a.Dim(i) != target.Dim(i + off)) return false;
  }
  return true;
}

}  // namespace mocograd
