// Negative-compilation fixture: calling a COLGRAPH_REQUIRES(mu_) method
// without holding the mutex must be rejected. This is the contract that
// protects the *Locked() helper pattern (e.g. FramedLog::FlushLocked).
//
// negcompile-expect: requires holding mutex

#include <cstdint>

#include "util/sync.h"

namespace {

class Buffered {
 public:
  void Append(uint64_t v) {
    pending_ += v;  // BAD on its own, but the interesting error is below.
    FlushLocked();  // BAD: caller must hold mu_.
  }

 private:
  void FlushLocked() COLGRAPH_REQUIRES(mu_) { pending_ = 0; }

  colgraph::Mutex mu_;
  uint64_t pending_ COLGRAPH_GUARDED_BY(mu_) = 0;
};

}  // namespace

int main() {
  Buffered b;
  b.Append(7);
  return 0;
}
