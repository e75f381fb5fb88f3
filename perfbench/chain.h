#ifndef PERFBENCH_CHAIN_H_
#define PERFBENCH_CHAIN_H_

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* 4096-step straight-line integer chain (see chain.c). */
uint64_t perfbench_chain(uint64_t x, uint64_t k);
typedef uint64_t (*perfbench_chain_fn)(uint64_t x, uint64_t k);

#ifdef __cplusplus
}
#endif

#endif /* PERFBENCH_CHAIN_H_ */
