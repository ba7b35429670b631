# Bitwise CRC-32 (reflected polynomial 0xEDB88320) over 64 words of
# hashed uninitialized memory. The inner bit loop's beq is data-dependent
# — roughly a coin flip per iteration — so this is the branchy,
# predictor-hostile workload of the set.
.name crc
.loop 32768
	li x1, 0x3000        # data
	li x2, 0             # word index
	li x3, 64
	li x4, -1            # crc = 0xFFFFFFFF
	li x5, 0xEDB88320
word:
	lw x6, 0(x1)
	xor x4, x4, x6
	li x7, 0             # bit index
bit:
	andi x8, x4, 1
	srli x4, x4, 1
	beq x8, x0, skip
	xor x4, x4, x5
skip:
	addi x7, x7, 1
	slti x9, x7, 32
	bne x9, x0, bit
	addi x1, x1, 4
	addi x2, x2, 1
	blt x2, x3, word
	xori x4, x4, -1      # final inversion
	sw x4, 0(x1)
