/* The paper's C interface from a plain C11 program (brew.h, Figures 2, 3
 * and 5): configure the runtime once, specialize a polynomial for its
 * constant coefficient table and degree while a helper call stays a call,
 * then dispatch a power function over its exponent.
 *
 *   ./build/examples/capi_c
 *
 * Every result is checked against the original function; the program
 * exits nonzero on a mismatch or a failed rewrite.
 */
#include <stdint.h>
#include <stdio.h>

#include "core/brew.h"

typedef double (*poly_fn)(const double* coeffs, long n, double x);
typedef long (*power_fn)(long x, long e);

/* ISO C has no conversion between function and object pointers, and
 * brew.h passes code addresses as pointers: they go through uintptr_t. */
#define CODE(fn) ((const void*)(uintptr_t)(fn))

static int failures = 0;

static void check(int ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "MISMATCH: %s\n", what);
    ++failures;
  }
}

/* Kept out of line, and kept as a call in the rewrite (brew_setfn). */
__attribute__((noinline)) static double halve(double v) { return v * 0.5; }

static double poly_eval(const double* coeffs, long n, double x) {
  double acc = 0.0;
  for (long i = 0; i < n; ++i) acc = acc * x + coeffs[i];
  return halve(acc);
}

static long power(long x, long e) {
  long r = 1;
  while (e-- > 0) r *= x;
  return r;
}

/* The runtime's knobs, set once before the first rewrite. */
static int configure_runtime(void) {
  brew_options* options = brew_options_init();
  if (options == NULL) return -1;
  brew_options_set_workers(options, 2);
  brew_options_set_cache_bytes(options, (size_t)16 << 20);
  brew_options_set_max_variants(options, 4);
  brew_options_set_sample_calls(options, 16);
  brew_options_set_decay_interval(options, 256);
  brew_options_set_async_specialize(options, 0);
  brew_options_set_profile_hz(options, 0);
  brew_options_set_cache_dir(options, NULL); /* no persistence */
  const int status = brew_configure(options);
  brew_options_free(options);
  return status;
}

/* p(x) = ((2x - 3)x + 0.5)x + 4, halved: the table and the degree are
 * known, x is not, so the loop unrolls and the loads fold. */
static void specialize_polynomial(void) {
  static const double coeffs[4] = {2.0, -3.0, 0.5, 4.0};
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 3);
  brew_setpar(conf, 1, BREW_KNOWN);
  brew_setpar(conf, 2, BREW_KNOWN);
  brew_setpar_double(conf, 3, BREW_UNKNOWN);
  brew_setret(conf, BREW_RET_DOUBLE);
  brew_setmem(conf, coeffs, coeffs + 4, BREW_KNOWN);
  brew_setfn(conf, CODE(halve), BREW_FN_NOINLINE);

  brew_func* h = brew_rewrite2(conf, CODE(poly_eval), coeffs, 4L, 0.0);
  if (h == NULL) {
    fprintf(stderr, "rewrite failed: %s\n", brew_lastError(conf));
    ++failures;
    brew_freeConf(conf);
    return;
  }
  const poly_fn spec = (poly_fn)(uintptr_t)brew_func_entry(h);
  for (int i = -8; i <= 8; ++i) {
    const double x = i * 0.375;
    check(spec(NULL, 0, x) == poly_eval(coeffs, 4, x),
          "specialized polynomial");
  }
  printf("polynomial: p(1.5)/2 = %g from the specialized code\n",
         spec(NULL, 0, 1.5));
  brew_release_h(h);
  brew_freeConf(conf);
}

/* Variants keyed by the exponent: hot exponents get their own code behind
 * one stub; every call stays correct whichever path serves it. */
static void dispatch_power(void) {
  brew_conf* conf = brew_initConf();
  brew_setnpar(conf, 2);
  brew_setret(conf, BREW_RET_INT);
  brew_dispatch* d = brew_dispatch_create(conf, CODE(power), 2, 0L, 0L);
  if (d == NULL) {
    fprintf(stderr, "dispatch failed: %s\n", brew_lastError(conf));
    ++failures;
    brew_freeConf(conf);
    return;
  }
  const power_fn entry = (power_fn)(uintptr_t)brew_dispatch_entry(d);
  for (long round = 0; round < 1000; ++round) {
    const long x = round % 7 - 3;
    check(entry(x, 2) == power(x, 2), "dispatched power, e = 2");
    check(entry(x, 5) == power(x, 5), "dispatched power, e = 5");
  }
  const size_t variants = brew_dispatch_variant_count(d);
  check(variants >= 1, "a hot exponent got a variant");

  /* A new epoch retires the variants; calls stay correct meanwhile. */
  brew_dispatch_bump_epoch(d);
  for (long x = -3; x <= 3; ++x)
    check(entry(x, 5) == power(x, 5), "power after an epoch bump");
  printf("power: %zu live variant(s) before the epoch bump\n", variants);
  brew_dispatch_free(d);
  brew_freeConf(conf);
}

int main(void) {
  if (configure_runtime() != 0) {
    fprintf(stderr, "brew_configure failed\n");
    return 1;
  }
  specialize_polynomial();
  dispatch_power();
  if (failures != 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  printf("all checks passed\n");
  return 0;
}
