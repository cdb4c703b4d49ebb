// Known-bad input for the new-delete rule.
#include <memory>

namespace demo {

struct Widget {
  Widget(const Widget&) = delete;  // `= delete` is not a deallocation
};

Widget* Leak() {
  return new Widget();
}

void Free(Widget* w) {
  delete w;
}

std::shared_ptr<Widget> Factory() {
  return std::shared_ptr<Widget>(new Widget());  // factory idiom: allowed
}

std::shared_ptr<Widget> WrappedFactory() {
  return std::shared_ptr<Widget>(
      new Widget());  // allowed: smart pointer on the previous line
}

Widget* Suppressed() {
  return new Widget();  // hqcheck:allow(new-delete)
}

}  // namespace demo
