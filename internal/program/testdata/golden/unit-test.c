/* Synthetic test case "unit-test" generated by MicroGrad-Go.
 * Static instructions: 6; data footprint: 12288 bytes.
 * Compile: cc -O1 -o kernel kernel.c   (avoid -O2+ so the loop body is preserved)
 */

#include <stdint.h>
#include <stdlib.h>
#include <stdio.h>

static volatile uint8_t stream0[4096];
static volatile uint8_t stream1[8192];

static inline uint32_t lcg(uint32_t *s) { *s = *s * 1664525u + 1013904223u; return *s; }

int main(int argc, char **argv) {
    long iters = argc > 1 ? atol(argv[1]) : 10000000L / 6;
    uint32_t rng = 0x12345678u;
    volatile int64_t iacc = 1; volatile double facc = 1.0;
    size_t off0 = 0; (void)off0;
    size_t off1 = 0; (void)off1;
    int64_t branch_taken = 0;
    for (long it = 0; it < iters; it++) {
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 16) % 4096; /* ld */
        facc = facc * 1.0000001; /* fmul.d */
        if (lcg(&rng) < 644245094u) { branch_taken++; } /* beq random_ratio=0.30 */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 64) % 8192; /* sw */
    }
    printf("iacc=%lld facc=%f taken=%lld\n", (long long)iacc, (double)facc, (long long)branch_taken);
    return 0;
}
