# Linked-list walk: build a 128-node list (64-byte stride, one node per
# cache line), then chase it 8 times. The serial lw x1, 0(x1) dependence
# chain defeats the load queue's parallelism — the classic
# pointer-chasing, latency-bound workload.
.name listwalk
.loop 32768
	li x1, 0x2000        # node cursor
	li x2, 0             # i
	li x3, 127
build:
	addi x4, x1, 64      # next node, one cache line away
	sw x4, 0(x1)
	mv x1, x4
	addi x2, x2, 1
	blt x2, x3, build
	sw x0, 0(x1)         # null-terminate the list
	li x5, 0             # walk count
	li x6, 8
walk:
	li x1, 0x2000
chase:
	lw x1, 0(x1)
	bne x1, x0, chase
	addi x5, x5, 1
	blt x5, x6, walk
