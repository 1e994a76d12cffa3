/* Synthetic test case "ref-mcf-steady" generated by MicroGrad-Go.
 * Static instructions: 800; data footprint: 1576960 bytes.
 * meta benchmark = mcf
 * meta branch_random_ratio = 0.380
 * meta generator = micrograd/microprobe
 * meta loop_size = 800
 * meta mem_footprint_kb = 1536
 * meta mem_stride_b = 56
 * meta phase = steady
 * meta reg_dependency_distance = 2
 * meta register_init = random
 * Compile: cc -O1 -o kernel kernel.c   (avoid -O2+ so the loop body is preserved)
 */

#include <stdint.h>
#include <stdlib.h>
#include <stdio.h>

static volatile uint8_t stream0[4096];
static volatile uint8_t stream1[1572864];

static inline uint32_t lcg(uint32_t *s) { *s = *s * 1664525u + 1013904223u; return *s; }

int main(int argc, char **argv) {
    long iters = argc > 1 ? atol(argv[1]) : 10000000L / 800;
    uint32_t rng = 0x12345678u;
    volatile int64_t iacc = 1; volatile double facc = 1.0;
    size_t off0 = 0; (void)off0;
    size_t off1 = 0; (void)off1;
    int64_t branch_taken = 0;
    for (long it = 0; it < iters; it++) {
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 56) % 1572864; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* sub */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* beq random_ratio=0.38 */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* lw */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        if (lcg(&rng) < 816043786u) { branch_taken++; } /* bne random_ratio=0.38 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 56) % 1572864; /* ld */
    }
    printf("iacc=%lld facc=%f taken=%lld\n", (long long)iacc, (double)facc, (long long)branch_taken);
    return 0;
}
