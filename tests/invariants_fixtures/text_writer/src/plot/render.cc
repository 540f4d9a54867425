// Seeded violations for the text-writer contract: a stream and a printf
// rendering outside src/util/text.{h,cc}. The snprintf named in this comment
// and the one in the string literal below must not count; the two calls do.
#include <cstdio>
#include <sstream>
#include <string>

std::string render(double x) {
  std::ostringstream out;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", x);
  out << buf << " (was snprintf)";
  return out.str();
}
