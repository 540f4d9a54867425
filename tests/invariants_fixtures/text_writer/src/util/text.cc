// The writer itself is exempt: it may name and use anything it needs.
#include <cstdio>
#include <string>

void append_fixed(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  out += buf;
}
