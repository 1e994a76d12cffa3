# Synthetic test case "clone-mcf" generated by MicroGrad-Go
# static instructions: 160, data footprint: 36864 bytes
# meta branch_random_ratio = 0.400
# meta generator = micrograd/microprobe
# meta loop_size = 160
# meta mem_footprint_kb = 32
# meta mem_stride_b = 12
# meta reg_dependency_distance = 7
# meta register_init = random

	.section .data
	.align 6
stream0:
	.zero 4096
stream1:
	.zero 32768

	.section .text
	.globl _start
_start:
	la x6, stream0
	la x7, stream1
	li x5, 0		# loop counter

kernel_loop:
	bne x8, x9, .+4
	add x8, x8, x8
	mul x9, x9, x9
	beq x10, x11, .+4
	lw x10, 0(x6)
	sw x11, 0(x7)
	fadd.d f0, f0, f0
	ld x11, 8(x6)
	sd x12, 12(x7)
	bne x12, x13, .+4
	add x12, x12, x12
	mul x13, x13, x13
	beq x14, x8, .+4
	lw x14, 16(x6)
	sw x8, 24(x6)
	fadd.d f1, f1, f1
	ld x8, 24(x7)
	bne x9, x10, .+4
	add x9, x9, x9
	sd x10, 32(x6)
	mul x10, x10, x10
	beq x11, x12, .+4
	lw x11, 36(x7)
	sw x12, 40(x6)
	fadd.d f2, f2, f2
	ld x12, 48(x7)
	bne x13, x14, .+4
	add x13, x13, x13
	fmul.d f3, f3, f3
	mul x14, x14, x14
	beq x8, x9, .+4
	lw x8, 48(x6)
	sw x9, 56(x6)
	bne x9, x10, .+4
	fadd.d f4, f4, f4
	ld x9, 60(x7)
	add x10, x10, x10
	sd x11, 64(x6)
	mul x11, x11, x11
	bne x12, x13, .+4
	beq x12, x13, .+4
	lw x12, 72(x7)
	sw x13, 72(x6)
	add x13, x13, x13
	fadd.d f5, f5, f5
	ld x14, 80(x6)
	bne x8, x9, .+4
	mul x8, x8, x8
	beq x9, x10, .+4
	lw x9, 84(x7)
	sw x10, 88(x6)
	sd x10, 96(x7)
	add x10, x10, x10
	bne x11, x12, .+4
	fadd.d f6, f6, f6
	ld x11, 96(x6)
	mul x12, x12, x12
	beq x13, x14, .+4
	lw x13, 108(x7)
	sw x14, 104(x6)
	add x14, x14, x14
	bne x8, x9, .+4
	sd x8, 112(x6)
	fadd.d f0, f0, f0
	ld x8, 120(x7)
	mul x9, x9, x9
	beq x10, x11, .+4
	lw x10, 120(x6)
	sw x11, 132(x7)
	add x11, x11, x11
	bne x12, x13, .+4
	fadd.d f1, f1, f1
	ld x12, 128(x6)
	mul x13, x13, x13
	beq x14, x8, .+4
	lw x14, 136(x6)
	sw x8, 144(x7)
	add x8, x8, x8
	bne x9, x10, .+4
	sd x9, 144(x6)
	bne x9, x10, .+4
	add x9, x9, x9
	mul x10, x10, x10
	beq x11, x12, .+4
	lw x11, 156(x7)
	sw x12, 152(x6)
	fadd.d f2, f2, f2
	ld x12, 168(x7)
	bne x13, x14, .+4
	add x13, x13, x13
	mul x14, x14, x14
	beq x8, x9, .+4
	lw x8, 160(x6)
	sw x9, 168(x6)
	sd x9, 180(x7)
	fadd.d f3, f3, f3
	ld x9, 176(x6)
	bne x10, x11, .+4
	add x10, x10, x10
	mul x11, x11, x11
	beq x12, x13, .+4
	lw x12, 192(x7)
	sw x13, 184(x6)
	fadd.d f4, f4, f4
	ld x13, 192(x6)
	bne x14, x8, .+4
	add x14, x14, x14
	sd x8, 204(x7)
	fmul.d f5, f5, f5
	mul x8, x8, x8
	beq x9, x10, .+4
	lw x9, 200(x6)
	sw x10, 216(x7)
	bne x10, x11, .+4
	fadd.d f6, f6, f6
	ld x10, 208(x6)
	add x11, x11, x11
	mul x12, x12, x12
	beq x13, x14, .+4
	bne x13, x14, .+4
	lw x13, 228(x7)
	sw x14, 216(x6)
	sd x14, 224(x6)
	add x14, x14, x14
	fadd.d f0, f0, f0
	ld x8, 240(x7)
	bne x9, x10, .+4
	mul x9, x9, x9
	beq x10, x11, .+4
	lw x10, 232(x6)
	sw x11, 252(x7)
	add x11, x11, x11
	bne x12, x13, .+4
	fadd.d f1, f1, f1
	ld x12, 240(x6)
	sd x13, 248(x6)
	mul x13, x13, x13
	beq x14, x8, .+4
	lw x14, 264(x7)
	sw x8, 256(x6)
	add x8, x8, x8
	bne x9, x10, .+4
	fadd.d f2, f2, f2
	ld x9, 276(x7)
	mul x10, x10, x10
	beq x11, x12, .+4
	lw x11, 264(x6)
	sw x12, 288(x7)
	add x12, x12, x12
	bne x13, x14, .+4
	sd x13, 272(x6)
	fadd.d f3, f3, f3
	ld x13, 280(x6)
	mul x14, x14, x14
	beq x8, x9, .+4
	lw x8, 300(x7)
	sw x9, 288(x6)
	add x9, x9, x9
	bne x10, x11, .+4
	bge x5, x0, kernel_loop	# loop close

