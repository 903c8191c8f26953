#include "radiobcast/obs/counters.h"

#include <algorithm>

namespace rbcast {

void Counters::merge(const Counters& other) {
  for_each_counter([&](const char*, auto field, CounterMerge rule, bool) {
    if (rule == CounterMerge::kMax) {
      this->*field = std::max(this->*field, other.*field);
    } else {
      this->*field += other.*field;
    }
  });
}

std::string to_json(const Counters& c) {
  std::string out = "{";
  for_each_counter([&](const char* name, auto field, CounterMerge, bool) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(c.*field);
  });
  out += '}';
  return out;
}

}  // namespace rbcast
