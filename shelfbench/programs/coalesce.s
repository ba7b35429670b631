# Store-heavy block fill: 256 blocks of four adjacent word stores plus a
# pointer bump. Adjacent same-line stores are exactly what the shelf's
# store coalescing window absorbs, so this workload separates
# shelf-enabled configurations from the baseline on store traffic.
.name coalesce
.loop 16384
	li x1, 0x8000        # out
	li x2, 0             # block index
	li x3, 256
block:
	sw x2, 0(x1)
	sw x2, 4(x1)
	sw x2, 8(x1)
	sw x2, 12(x1)
	addi x1, x1, 16
	addi x2, x2, 1
	blt x2, x3, block
