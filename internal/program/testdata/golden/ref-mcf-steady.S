# Synthetic test case "ref-mcf-steady" generated by MicroGrad-Go
# static instructions: 800, data footprint: 1576960 bytes
# meta benchmark = mcf
# meta branch_random_ratio = 0.380
# meta generator = micrograd/microprobe
# meta loop_size = 800
# meta mem_footprint_kb = 1536
# meta mem_stride_b = 56
# meta phase = steady
# meta reg_dependency_distance = 2
# meta register_init = random

	.section .data
	.align 6
stream0:
	.zero 4096
stream1:
	.zero 1572864

	.section .text
	.globl _start
_start:
	la x6, stream0
	la x7, stream1
	li x5, 0		# loop counter

kernel_loop:
	ld x8, 0(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	beq x8, x9, .+4
	ld x8, 56(x7)
	lw x9, 112(x7)
	sd x8, 0(x6)
	add x8, x8, x8
	ld x9, 168(x7)
	sub x8, x8, x8
	ld x9, 224(x7)
	add x8, x8, x8
	sw x9, 280(x7)
	ld x9, 336(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 392(x7)
	lw x8, 8(x6)
	sd x9, 448(x7)
	ld x9, 504(x7)
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 560(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 616(x7)
	beq x9, x8, .+4
	lw x9, 672(x7)
	ld x8, 16(x6)
	sd x9, 728(x7)
	add x9, x9, x9
	ld x8, 784(x7)
	sub x9, x9, x9
	sw x8, 840(x7)
	add x8, x8, x8
	ld x9, 896(x7)
	bne x8, x9, .+4
	ld x8, 952(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 24(x6)
	ld x9, 1008(x7)
	sd x8, 1064(x7)
	add x8, x8, x8
	ld x9, 1120(x7)
	bne x8, x9, .+4
	sub x8, x8, x8
	ld x9, 1176(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 1232(x7)
	lw x8, 32(x6)
	sd x9, 1288(x7)
	add x9, x9, x9
	ld x8, 1344(x7)
	bne x9, x8, .+4
	ld x9, 1400(x7)
	add x8, x8, x8
	sw x9, 1456(x7)
	sub x9, x9, x9
	ld x8, 1512(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 40(x6)
	lw x9, 1568(x7)
	sd x8, 1624(x7)
	ld x8, 1680(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 1736(x7)
	add x9, x9, x9
	sub x8, x8, x8
	ld x9, 1792(x7)
	beq x8, x9, .+4
	lw x8, 48(x6)
	ld x9, 1848(x7)
	sd x8, 1904(x7)
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 1960(x7)
	sw x8, 2016(x7)
	add x8, x8, x8
	ld x9, 2072(x7)
	sub x8, x8, x8
	ld x9, 56(x6)
	add x8, x8, x8
	beq x9, x8, .+4
	bne x9, x8, .+4
	ld x9, 2128(x7)
	lw x8, 2184(x7)
	sd x9, 2240(x7)
	add x9, x9, x9
	ld x8, 2296(x7)
	ld x9, 2352(x7)
	add x8, x8, x8
	bne x9, x8, .+4
	beq x9, x8, .+4
	ld x9, 64(x6)
	lw x8, 2408(x7)
	sd x9, 2464(x7)
	add x9, x9, x9
	ld x8, 2520(x7)
	sub x9, x9, x9
	ld x8, 2576(x7)
	add x9, x9, x9
	sw x8, 2632(x7)
	ld x8, 72(x6)
	bne x9, x8, .+4
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 2688(x7)
	lw x9, 2744(x7)
	sd x8, 2800(x7)
	ld x8, 2856(x7)
	add x9, x9, x9
	sub x8, x8, x8
	ld x9, 2912(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	ld x9, 80(x6)
	beq x8, x9, .+4
	lw x8, 2968(x7)
	ld x9, 3024(x7)
	sd x8, 3080(x7)
	add x8, x8, x8
	ld x9, 3136(x7)
	sub x8, x8, x8
	sw x9, 3192(x7)
	add x9, x9, x9
	ld x8, 88(x6)
	bne x9, x8, .+4
	ld x9, 3248(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 3304(x7)
	ld x8, 3360(x7)
	sd x9, 3416(x7)
	add x9, x9, x9
	ld x8, 3472(x7)
	bne x9, x8, .+4
	sub x9, x9, x9
	ld x8, 96(x6)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 3528(x7)
	lw x9, 3584(x7)
	sd x8, 3640(x7)
	add x8, x8, x8
	ld x9, 3696(x7)
	bne x8, x9, .+4
	ld x8, 3752(x7)
	add x9, x9, x9
	sw x8, 104(x6)
	ld x8, 3808(x7)
	sub x9, x9, x9
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 3864(x7)
	lw x8, 3920(x7)
	sd x9, 3976(x7)
	ld x9, 4032(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	ld x9, 112(x6)
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 4088(x7)
	beq x9, x8, .+4
	lw x9, 4144(x7)
	ld x8, 4200(x7)
	sd x9, 4256(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 4312(x7)
	sw x9, 120(x6)
	add x9, x9, x9
	ld x8, 4368(x7)
	bne x9, x8, .+4
	ld x9, 4424(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 4480(x7)
	ld x8, 4536(x7)
	sd x9, 4592(x7)
	sub x9, x9, x9
	add x8, x8, x8
	ld x9, 128(x6)
	ld x8, 4648(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	beq x8, x9, .+4
	ld x8, 4704(x7)
	lw x9, 4760(x7)
	sd x8, 4816(x7)
	add x8, x8, x8
	ld x9, 4872(x7)
	sub x8, x8, x8
	ld x9, 136(x6)
	add x8, x8, x8
	sw x9, 4928(x7)
	ld x9, 4984(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 5040(x7)
	lw x8, 5096(x7)
	sd x9, 5152(x7)
	ld x9, 144(x6)
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 5208(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 5264(x7)
	beq x9, x8, .+4
	lw x9, 5320(x7)
	ld x8, 5376(x7)
	sd x9, 5432(x7)
	add x9, x9, x9
	ld x8, 152(x6)
	sw x9, 5488(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 5544(x7)
	sub x9, x9, x9
	ld x8, 5600(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 5656(x7)
	ld x9, 5712(x7)
	sd x8, 160(x6)
	add x8, x8, x8
	ld x9, 5768(x7)
	bne x8, x9, .+4
	sub x8, x8, x8
	ld x9, 5824(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 5880(x7)
	lw x8, 5936(x7)
	sd x9, 5992(x7)
	add x9, x9, x9
	ld x8, 168(x6)
	bne x9, x8, .+4
	ld x9, 6048(x7)
	add x8, x8, x8
	sw x9, 6104(x7)
	ld x9, 6160(x7)
	sub x8, x8, x8
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 6216(x7)
	lw x9, 6272(x7)
	sd x8, 176(x6)
	ld x8, 6328(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 6384(x7)
	add x9, x9, x9
	ld x8, 6440(x7)
	sub x9, x9, x9
	beq x8, x9, .+4
	lw x8, 6496(x7)
	ld x9, 6552(x7)
	sd x8, 184(x6)
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 6608(x7)
	sw x8, 6664(x7)
	add x8, x8, x8
	ld x9, 6720(x7)
	bne x8, x9, .+4
	ld x8, 6776(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 6832(x7)
	ld x9, 192(x6)
	sd x8, 6888(x7)
	sub x8, x8, x8
	add x9, x9, x9
	ld x8, 6944(x7)
	ld x9, 7000(x7)
	add x8, x8, x8
	bne x9, x8, .+4
	beq x9, x8, .+4
	ld x9, 7056(x7)
	lw x8, 7112(x7)
	sd x9, 200(x6)
	add x9, x9, x9
	ld x8, 7168(x7)
	sub x9, x9, x9
	ld x8, 7224(x7)
	add x9, x9, x9
	sw x8, 7280(x7)
	bne x8, x9, .+4
	ld x8, 7336(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 7392(x7)
	lw x9, 208(x6)
	sd x8, 7448(x7)
	ld x8, 7504(x7)
	add x9, x9, x9
	sub x8, x8, x8
	ld x9, 7560(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	ld x9, 7616(x7)
	beq x8, x9, .+4
	lw x8, 7672(x7)
	ld x9, 216(x6)
	sd x8, 7728(x7)
	add x8, x8, x8
	ld x9, 7784(x7)
	bne x8, x9, .+4
	sw x8, 7840(x7)
	add x8, x8, x8
	ld x9, 7896(x7)
	sub x8, x8, x8
	ld x9, 7952(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 224(x6)
	ld x8, 8008(x7)
	sd x9, 8064(x7)
	add x9, x9, x9
	ld x8, 8120(x7)
	bne x9, x8, .+4
	sub x9, x9, x9
	ld x8, 8176(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 8232(x7)
	lw x9, 232(x6)
	sd x8, 8288(x7)
	add x8, x8, x8
	ld x9, 8344(x7)
	bne x8, x9, .+4
	ld x8, 8400(x7)
	add x9, x9, x9
	sw x8, 8456(x7)
	ld x8, 8512(x7)
	sub x9, x9, x9
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 240(x6)
	lw x8, 8568(x7)
	sd x9, 8624(x7)
	bne x9, x8, .+4
	ld x9, 8680(x7)
	add x8, x8, x8
	ld x9, 8736(x7)
	add x8, x8, x8
	ld x9, 8792(x7)
	bne x8, x9, .+4
	beq x8, x9, .+4
	lw x8, 248(x6)
	ld x9, 8848(x7)
	sd x8, 8904(x7)
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 8960(x7)
	sw x9, 9016(x7)
	add x9, x9, x9
	ld x8, 9072(x7)
	bne x9, x8, .+4
	ld x9, 256(x6)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 9128(x7)
	ld x8, 9184(x7)
	sd x9, 9240(x7)
	sub x9, x9, x9
	add x8, x8, x8
	ld x9, 9296(x7)
	bne x8, x9, .+4
	ld x8, 9352(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 264(x6)
	lw x9, 9408(x7)
	sd x8, 9464(x7)
	add x8, x8, x8
	ld x9, 9520(x7)
	sub x8, x8, x8
	ld x9, 9576(x7)
	add x8, x8, x8
	sw x9, 9632(x7)
	bne x9, x8, .+4
	ld x9, 272(x6)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 9688(x7)
	lw x8, 9744(x7)
	sd x9, 9800(x7)
	ld x9, 9856(x7)
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 9912(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 280(x6)
	beq x9, x8, .+4
	lw x9, 9968(x7)
	ld x8, 10024(x7)
	sd x9, 10080(x7)
	add x9, x9, x9
	ld x8, 10136(x7)
	bne x9, x8, .+4
	sw x9, 10192(x7)
	add x9, x9, x9
	ld x8, 288(x6)
	sub x9, x9, x9
	ld x8, 10248(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 10304(x7)
	ld x9, 10360(x7)
	sd x8, 10416(x7)
	add x8, x8, x8
	ld x9, 10472(x7)
	bne x8, x9, .+4
	ld x8, 296(x6)
	add x9, x9, x9
	sub x8, x8, x8
	beq x9, x8, .+4
	ld x9, 10528(x7)
	lw x8, 10584(x7)
	sd x9, 10640(x7)
	add x9, x9, x9
	ld x8, 10696(x7)
	bne x9, x8, .+4
	ld x9, 10752(x7)
	add x8, x8, x8
	sw x9, 304(x6)
	ld x9, 10808(x7)
	sub x8, x8, x8
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 10864(x7)
	lw x9, 10920(x7)
	sd x8, 10976(x7)
	bne x8, x9, .+4
	ld x8, 11032(x7)
	add x9, x9, x9
	ld x8, 312(x6)
	add x9, x9, x9
	ld x8, 11088(x7)
	bne x9, x8, .+4
	beq x9, x8, .+4
	lw x9, 11144(x7)
	ld x8, 11200(x7)
	sd x9, 11256(x7)
	add x9, x9, x9
	sub x8, x8, x8
	ld x9, 11312(x7)
	sw x8, 320(x6)
	add x8, x8, x8
	ld x9, 11368(x7)
	bne x8, x9, .+4
	ld x8, 11424(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 11480(x7)
	ld x9, 11536(x7)
	sd x8, 11592(x7)
	add x8, x8, x8
	ld x9, 328(x6)
	sub x8, x8, x8
	bne x9, x8, .+4
	ld x9, 11648(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 11704(x7)
	lw x8, 11760(x7)
	sd x9, 11816(x7)
	add x9, x9, x9
	ld x8, 11872(x7)
	sub x9, x9, x9
	ld x8, 336(x6)
	add x9, x9, x9
	sw x8, 11928(x7)
	bne x8, x9, .+4
	ld x8, 11984(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 12040(x7)
	lw x9, 12096(x7)
	sd x8, 12152(x7)
	ld x8, 344(x6)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 12208(x7)
	sub x9, x9, x9
	add x8, x8, x8
	ld x9, 12264(x7)
	beq x8, x9, .+4
	lw x8, 12320(x7)
	ld x9, 12376(x7)
	sd x8, 12432(x7)
	add x8, x8, x8
	ld x9, 352(x6)
	bne x8, x9, .+4
	sw x8, 12488(x7)
	add x8, x8, x8
	ld x9, 12544(x7)
	sub x8, x8, x8
	ld x9, 12600(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 12656(x7)
	ld x8, 12712(x7)
	sd x9, 360(x6)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 12768(x7)
	ld x9, 12824(x7)
	add x8, x8, x8
	sub x9, x9, x9
	beq x8, x9, .+4
	ld x8, 12880(x7)
	lw x9, 12936(x7)
	sd x8, 12992(x7)
	add x8, x8, x8
	ld x9, 368(x6)
	bne x8, x9, .+4
	ld x8, 13048(x7)
	add x9, x9, x9
	sw x8, 13104(x7)
	ld x8, 13160(x7)
	sub x9, x9, x9
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 13216(x7)
	beq x8, x9, .+4
	lw x8, 13272(x7)
	sd x9, 376(x6)
	ld x9, 13328(x7)
	add x8, x8, x8
	ld x9, 13384(x7)
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 13440(x7)
	beq x8, x9, .+4
	lw x8, 13496(x7)
	ld x9, 13552(x7)
	sd x8, 384(x6)
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 13608(x7)
	sw x9, 13664(x7)
	add x9, x9, x9
	ld x8, 13720(x7)
	bne x9, x8, .+4
	ld x9, 13776(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 13832(x7)
	ld x8, 392(x6)
	sd x9, 13888(x7)
	add x9, x9, x9
	ld x8, 13944(x7)
	sub x9, x9, x9
	bne x8, x9, .+4
	ld x8, 14000(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 14056(x7)
	lw x9, 14112(x7)
	sd x8, 400(x6)
	add x8, x8, x8
	ld x9, 14168(x7)
	sw x8, 14224(x7)
	ld x8, 14280(x7)
	add x9, x9, x9
	sub x8, x8, x8
	bne x9, x8, .+4
	ld x9, 14336(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 14392(x7)
	lw x8, 408(x6)
	sd x9, 14448(x7)
	ld x9, 14504(x7)
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 14560(x7)
	sub x8, x8, x8
	add x9, x9, x9
	ld x8, 14616(x7)
	beq x9, x8, .+4
	lw x9, 14672(x7)
	ld x8, 416(x6)
	sd x9, 14728(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 14784(x7)
	sw x9, 14840(x7)
	add x9, x9, x9
	ld x8, 14896(x7)
	sub x9, x9, x9
	ld x8, 14952(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 424(x6)
	ld x9, 15008(x7)
	sd x8, 15064(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	ld x9, 15120(x7)
	ld x8, 15176(x7)
	add x9, x9, x9
	sub x8, x8, x8
	beq x9, x8, .+4
	ld x9, 15232(x7)
	lw x8, 432(x6)
	sd x9, 15288(x7)
	add x9, x9, x9
	ld x8, 15344(x7)
	bne x9, x8, .+4
	ld x9, 15400(x7)
	add x8, x8, x8
	sw x9, 15456(x7)
	ld x9, 15512(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 440(x6)
	lw x8, 15568(x7)
	sd x9, 15624(x7)
	ld x9, 15680(x7)
	sub x8, x8, x8
	add x9, x9, x9
	ld x8, 15736(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 15792(x7)
	beq x9, x8, .+4
	lw x9, 448(x6)
	ld x8, 15848(x7)
	sd x9, 15904(x7)
	add x9, x9, x9
	sub x8, x8, x8
	ld x9, 15960(x7)
	sw x8, 16016(x7)
	add x8, x8, x8
	ld x9, 16072(x7)
	bne x8, x9, .+4
	ld x8, 456(x6)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 16128(x7)
	ld x9, 16184(x7)
	sd x8, 16240(x7)
	add x8, x8, x8
	ld x9, 16296(x7)
	sub x8, x8, x8
	bne x9, x8, .+4
	ld x9, 16352(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 464(x6)
	lw x8, 16408(x7)
	sd x9, 16464(x7)
	add x9, x9, x9
	ld x8, 16520(x7)
	sw x9, 16576(x7)
	ld x9, 16632(x7)
	bne x8, x9, .+4
	add x8, x8, x8
	sub x9, x9, x9
	ld x8, 472(x6)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 16688(x7)
	lw x9, 16744(x7)
	sd x8, 16800(x7)
	ld x8, 16856(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 16912(x7)
	sub x9, x9, x9
	add x8, x8, x8
	ld x9, 480(x6)
	beq x8, x9, .+4
	lw x8, 16968(x7)
	ld x9, 17024(x7)
	sd x8, 17080(x7)
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 17136(x7)
	sw x8, 17192(x7)
	add x8, x8, x8
	ld x9, 488(x6)
	sub x8, x8, x8
	ld x9, 17248(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 17304(x7)
	ld x8, 17360(x7)
	sd x9, 17416(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	ld x8, 17472(x7)
	ld x9, 496(x6)
	add x8, x8, x8
	sub x9, x9, x9
	beq x8, x9, .+4
	ld x8, 17528(x7)
	bne x9, x8, .+4
	lw x9, 17584(x7)
	add x8, x8, x8
	ld x9, 17640(x7)
	sd x8, 17696(x7)
	ld x8, 17752(x7)
	add x9, x9, x9
	sw x8, 504(x6)
	ld x8, 17808(x7)
	bne x9, x8, .+4
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 17864(x7)
	lw x9, 17920(x7)
	sd x8, 17976(x7)
	ld x8, 18032(x7)
	sub x9, x9, x9
	add x8, x8, x8
	ld x9, 512(x6)
	bne x8, x9, .+4
	add x8, x8, x8
	ld x9, 18088(x7)
	beq x8, x9, .+4
	lw x8, 18144(x7)
	ld x9, 18200(x7)
	sd x8, 18256(x7)
	add x8, x8, x8
	ld x9, 18312(x7)
	sub x8, x8, x8
	sw x9, 520(x6)
	add x9, x9, x9
	ld x8, 18368(x7)
	bne x9, x8, .+4
	ld x9, 18424(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	lw x9, 18480(x7)
	ld x8, 18536(x7)
	sd x9, 18592(x7)
	add x9, x9, x9
	ld x8, 528(x6)
	sub x9, x9, x9
	bne x8, x9, .+4
	ld x8, 18648(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	ld x8, 18704(x7)
	lw x9, 18760(x7)
	sd x8, 18816(x7)
	add x8, x8, x8
	ld x9, 18872(x7)
	bne x8, x9, .+4
	ld x8, 536(x6)
	add x9, x9, x9
	sw x8, 18928(x7)
	sub x8, x8, x8
	ld x9, 18984(x7)
	add x8, x8, x8
	beq x9, x8, .+4
	ld x9, 19040(x7)
	lw x8, 19096(x7)
	sd x9, 19152(x7)
	ld x9, 544(x6)
	add x8, x8, x8
	bne x9, x8, .+4
	ld x9, 19208(x7)
	sub x8, x8, x8
	add x9, x9, x9
	ld x8, 19264(x7)
	beq x9, x8, .+4
	lw x9, 19320(x7)
	ld x8, 19376(x7)
	sd x9, 19432(x7)
	add x9, x9, x9
	bne x8, x9, .+4
	ld x8, 552(x6)
	sw x9, 19488(x7)
	add x9, x9, x9
	ld x8, 19544(x7)
	sub x9, x9, x9
	ld x8, 19600(x7)
	add x9, x9, x9
	beq x8, x9, .+4
	lw x8, 19656(x7)
	ld x9, 19712(x7)
	sd x8, 560(x6)
	bne x8, x9, .+4
	add x8, x8, x8
	ld x9, 19768(x7)
	bge x5, x0, kernel_loop	# loop close

