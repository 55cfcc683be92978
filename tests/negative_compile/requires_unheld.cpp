// MUST NOT COMPILE under -Wthread-safety -Werror=thread-safety:
// calls an OLSQ2_REQUIRES method without holding the mutex it names.
#include "util/sync.h"

namespace {

class Registry {
 public:
  int lookup_locked() OLSQ2_REQUIRES(mutex_) { return entries_; }

  int lookup() {
    return lookup_locked();  // expected-error: requires mutex_
  }

 private:
  olsq2::sync::Mutex mutex_{"negative.registry"};
  int entries_ OLSQ2_GUARDED_BY(mutex_) = 0;
};

}  // namespace

int negative_compile_entry() {
  Registry r;
  return r.lookup();
}
