#ifndef TENDAX_UTIL_SHARED_LIST_H_
#define TENDAX_UTIL_SHARED_LIST_H_

#include <memory>
#include <utility>
#include <vector>

namespace tendax {

/// An immutable list that readers share: a reader copies the pointer (under
/// whatever lock guards it) and iterates without the lock; a writer replaces
/// the whole list. Callback registries use it, so that invoking the
/// callbacks copies none of them.
template <typename T>
using SharedList = std::shared_ptr<const std::vector<T>>;

/// `list` with `item` appended, as a new list (`list` may be null).
template <typename T>
SharedList<T> Appended(const SharedList<T>& list, T item) {
  auto next = list != nullptr ? std::make_shared<std::vector<T>>(*list)
                              : std::make_shared<std::vector<T>>();
  next->push_back(std::move(item));
  return next;
}

}  // namespace tendax

#endif  // TENDAX_UTIL_SHARED_LIST_H_
