# Synthetic test case "unit-test" generated by MicroGrad-Go
# static instructions: 6, data footprint: 12288 bytes

	.section .data
	.align 6
stream0:
	.zero 4096
stream1:
	.zero 8192

	.section .text
	.globl _start
_start:
	la x6, stream0
	la x7, stream1
	li x5, 0		# loop counter

kernel_loop:
	add x10, x11, x12
	ld x11, 0(x6)
	fmul.d f1, f2, f3
	beq x10, x11, .+4
	sw x10, 0(x7)
	bge x5, x0, kernel_loop	# loop close

