# Synthetic test case "stress-voltage-noise" generated by MicroGrad-Go
# static instructions: 160, data footprint: 20480 bytes
# meta branch_random_ratio = 0.100
# meta generator = micrograd/microprobe
# meta loop_size = 160
# meta mem_footprint_kb = 16
# meta mem_stride_b = 8
# meta reg_dependency_distance = 1
# meta register_init = random

	.section .data
	.align 6
stream0:
	.zero 4096
stream1:
	.zero 16384

	.section .text
	.globl _start
_start:
	la x6, stream0
	la x7, stream1
	li x5, 0		# loop counter

kernel_loop:
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 0(x7)
	beq x8, x8, .+4
	bne x8, x8, .+4
	lw x8, 0(x6)
	fadd.d f0, f0, f0
	sd x8, 8(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 16(x7)
	beq x8, x8, .+4
	bne x8, x8, .+4
	lw x8, 8(x6)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 24(x7)
	fmul.d f0, f0, f0
	ld x8, 32(x7)
	beq x8, x8, .+4
	fadd.d f0, f0, f0
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 16(x6)
	bne x8, x8, .+4
	lw x8, 40(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 48(x7)
	beq x8, x8, .+4
	bne x8, x8, .+4
	lw x8, 24(x6)
	sd x8, 56(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 64(x7)
	fadd.d f0, f0, f0
	beq x8, x8, .+4
	bne x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 32(x6)
	lw x8, 72(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 80(x7)
	bne x8, x8, .+4
	lw x8, 40(x6)
	fadd.d f0, f0, f0
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 88(x7)
	beq x8, x8, .+4
	sd x8, 96(x7)
	fmul.d f0, f0, f0
	bne x8, x8, .+4
	lw x8, 48(x6)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 104(x7)
	ld x8, 112(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 56(x6)
	fadd.d f0, f0, f0
	bne x8, x8, .+4
	lw x8, 120(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 128(x7)
	beq x8, x8, .+4
	bne x8, x8, .+4
	lw x8, 64(x6)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 136(x7)
	sd x8, 144(x7)
	beq x8, x8, .+4
	fadd.d f0, f0, f0
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 72(x6)
	bne x8, x8, .+4
	lw x8, 152(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 160(x7)
	bne x8, x8, .+4
	lw x8, 80(x6)
	fadd.d f0, f0, f0
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 168(x7)
	beq x8, x8, .+4
	fmul.d f0, f0, f0
	ld x8, 176(x7)
	sd x8, 88(x6)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 184(x7)
	bne x8, x8, .+4
	lw x8, 192(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 96(x6)
	fadd.d f0, f0, f0
	bne x8, x8, .+4
	lw x8, 200(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 208(x7)
	bne x8, x8, .+4
	lw x8, 104(x6)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 216(x7)
	beq x8, x8, .+4
	fadd.d f0, f0, f0
	sd x8, 224(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 112(x6)
	bne x8, x8, .+4
	lw x8, 232(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 240(x7)
	fmul.d f0, f0, f0
	ld x8, 120(x6)
	fadd.d f0, f0, f0
	bne x8, x8, .+4
	lw x8, 248(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 256(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 128(x6)
	bne x8, x8, .+4
	lw x8, 264(x7)
	beq x8, x8, .+4
	sd x8, 272(x7)
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 136(x6)
	fadd.d f0, f0, f0
	bne x8, x8, .+4
	lw x8, 280(x7)
	beq x8, x8, .+4
	add x8, x8, x8
	mul x8, x8, x8
	sw x8, 288(x7)
	bge x5, x0, kernel_loop	# loop close

