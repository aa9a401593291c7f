#include "cm/no_cm.hpp"

namespace ccd {

void NoCm::advise(Round /*round*/, BitView participating,
                  std::vector<CmAdvice>& out) {
  out.assign(participating.size(), CmAdvice::kActive);
}

}  // namespace ccd
