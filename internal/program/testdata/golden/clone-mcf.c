/* Synthetic test case "clone-mcf" generated by MicroGrad-Go.
 * Static instructions: 160; data footprint: 36864 bytes.
 * meta branch_random_ratio = 0.400
 * meta generator = micrograd/microprobe
 * meta loop_size = 160
 * meta mem_footprint_kb = 32
 * meta mem_stride_b = 12
 * meta reg_dependency_distance = 7
 * meta register_init = random
 * Compile: cc -O1 -o kernel kernel.c   (avoid -O2+ so the loop body is preserved)
 */

#include <stdint.h>
#include <stdlib.h>
#include <stdio.h>

static volatile uint8_t stream0[4096];
static volatile uint8_t stream1[32768];

static inline uint32_t lcg(uint32_t *s) { *s = *s * 1664525u + 1013904223u; return *s; }

int main(int argc, char **argv) {
    long iters = argc > 1 ? atol(argv[1]) : 10000000L / 160;
    uint32_t rng = 0x12345678u;
    volatile int64_t iacc = 1; volatile double facc = 1.0;
    size_t off0 = 0; (void)off0;
    size_t off1 = 0; (void)off1;
    int64_t branch_taken = 0;
    for (long it = 0; it < iters; it++) {
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sd */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sd */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sd */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sw */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* ld */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 12) % 32768; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc * 167772161 + 7; /* mul */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* beq random_ratio=0.40 */
        iacc += stream1[off1]; off1 = (off1 + 12) % 32768; /* lw */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 858993459u) { branch_taken++; } /* bne random_ratio=0.40 */
    }
    printf("iacc=%lld facc=%f taken=%lld\n", (long long)iacc, (double)facc, (long long)branch_taken);
    return 0;
}
