#include "net/no_loss.hpp"

namespace ccd {

void NoLoss::decide_delivery(Round /*round*/, BitView sent,
                             DeliveryMatrix& out) {
  out.deliver_to_all(sent);
}

}  // namespace ccd
