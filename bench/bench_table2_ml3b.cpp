// Table 2: the tabular representation of the 4-ML3B (Maximal Leaves Basic
// Building Block), plus validity checks for the other degrees used in the
// paper and benches. Reproduces the paper's table verbatim.
#include <cstdio>
#include <iostream>

#include "common/cli.h"
#include "common/table.h"
#include "gf/galois_field.h"
#include "topology/oft.h"

using namespace d2net;

namespace {

int run(int argc, char** argv) {
  Cli cli("Table 2: k-ML3B tabular representation (paper prints k = 4)");
  cli.flag("k", std::int64_t{4}, "ML3B degree (k - 1 must be a prime power)");
  if (!cli.parse(argc, argv)) return 0;
  const int k = static_cast<int>(cli.get_int("k"));

  const Ml3bTable table = build_ml3b(k);
  std::printf("== Table 2: %d-ML3B (rows: L0 router i -> its k L1 routers) ==\n", k);
  Table t([&] {
    std::vector<std::string> h{"i"};
    // Built without operator+(const char*, string&&): GCC 12's -Wrestrict
    // false-positives on that overload (PR105651) and CI builds -Werror.
    for (int c = 0; c < k; ++c) h.push_back(std::string("j") += std::to_string(c));
    return h;
  }());
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::vector<std::string> row{std::to_string(i)};
    for (int v : table[i]) row.push_back(std::to_string(v));
    t.add_row(std::move(row));
  }
  t.print(std::cout);

  std::printf("\nvalidity (exactly one shared L1 router per row pair; every L1 in k rows):\n");
  for (int kk : {2, 3, 4, 5, 6, 8, 12, 14, 18}) {
    if (kk != 2 && !GaloisField::is_prime_power(kk - 1)) continue;
    const bool ok = ml3b_is_valid(build_ml3b(kk), kk);
    std::printf("  k=%-3d RL=%-5d %s\n", kk, oft_routers_per_level(kk), ok ? "OK" : "FAIL");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return d2net::run_cli(run, argc, argv); }
