/* Synthetic test case "spatial-core2" generated by MicroGrad-Go.
 * Static instructions: 160; data footprint: 20480 bytes.
 * meta branch_random_ratio = 0.100
 * meta burst_len = 96
 * meta duty_cycle = 0.70
 * meta generator = micrograd/microprobe
 * meta loop_size = 160
 * meta mem_footprint_kb = 16
 * meta mem_stride_b = 8
 * meta phase_offset = 160
 * meta reg_dependency_distance = 8
 * meta register_init = random
 * Compile: cc -O1 -o kernel kernel.c   (avoid -O2+ so the loop body is preserved)
 */

#include <stdint.h>
#include <stdlib.h>
#include <stdio.h>

static volatile uint8_t stream0[4096];
static volatile uint8_t stream1[16384];

static inline uint32_t lcg(uint32_t *s) { *s = *s * 1664525u + 1013904223u; return *s; }

int main(int argc, char **argv) {
    long iters = argc > 1 ? atol(argv[1]) : 10000000L / 160;
    uint32_t rng = 0x12345678u;
    volatile int64_t iacc = 1; volatile double facc = 1.0;
    size_t off0 = 0; (void)off0;
    size_t off1 = 0; (void)off1;
    int64_t branch_taken = 0;
    for (long it = 0; it < iters; it++) {
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        facc = facc * 1.0000001; /* fmul.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* lw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        facc = facc * 1.0000001; /* fmul.d */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        facc = facc * 1.0000001; /* fmul.d */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc = iacc * 167772161 + 7; /* mul */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc + 0x9e3779b9; /* add */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc * 1.0000001; /* fmul.d */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc * 167772161 + 7; /* mul */
        iacc = iacc + 0x9e3779b9; /* add */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc * 167772161 + 7; /* mul */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        iacc = iacc * 167772161 + 7; /* div */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc + 1.0e-7; /* fadd.d */
        stream0[off0] = (uint8_t)iacc; off0 = (off0 + 8) % 4096; /* sd */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc * 1.0000001; /* fmul.d */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        facc = facc + 1.0e-7; /* fadd.d */
        facc = facc * 1.0000001; /* fmul.d */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        facc = facc * 1.0000001; /* fmul.d */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* lw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        iacc = iacc + 0x9e3779b9; /* add */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* ld */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sd */
        iacc = iacc + 0x9e3779b9; /* add */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc += stream0[off0]; off0 = (off0 + 8) % 4096; /* lw */
        facc = facc + 1.0e-7; /* fadd.d */
        iacc += stream1[off1]; off1 = (off1 + 8) % 16384; /* ld */
        facc = facc * 1.0000001; /* fmul.d */
        iacc = iacc * 167772161 + 7; /* mul */
        stream1[off1] = (uint8_t)iacc; off1 = (off1 + 8) % 16384; /* sw */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* beq random_ratio=0.10 */
        if (lcg(&rng) < 214748364u) { branch_taken++; } /* bne random_ratio=0.10 */
        iacc = iacc + 0x9e3779b9; /* add */
        iacc = iacc + 0x9e3779b9; /* add */
    }
    printf("iacc=%lld facc=%f taken=%lld\n", (long long)iacc, (double)facc, (long long)branch_taken);
    return 0;
}
