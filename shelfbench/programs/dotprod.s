# 256-element integer dot product: two streaming loads, a multiply and an
# accumulate per element — ILP-friendly, memory-bound on L1 hits. The
# arrays are never initialized; uninitialized memory reads as a
# deterministic hash of the address, so the result (and the schedule
# fingerprint) is reproducible.
.name dotprod
.loop 16384
	li x1, 0x1000        # a
	li x2, 0x9000        # b
	li x3, 0             # acc
	li x4, 0             # i
	li x5, 256
loop:
	lw x6, 0(x1)
	lw x7, 0(x2)
	mul x8, x6, x7
	add x3, x3, x8
	addi x1, x1, 4
	addi x2, x2, 4
	addi x4, x4, 1
	blt x4, x5, loop
	sw x3, 0(x2)         # spill the result so the stores are observable
