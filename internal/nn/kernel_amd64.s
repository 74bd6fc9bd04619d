#include "textflag.h"

// AVX kernels for the training step's two inner loops (see kernel.go),
// chosen at package initialisation when the CPU and the operating
// system support AVX (kernel_amd64.go). Each lane performs the Go
// loop's operations in the Go loop's order, with VMULPD/VADDPD/VSUBPD/
// VDIVPD/VSQRTPD rounding once per operation, so a lane's result equals
// the scalar result bit for bit (a NaN's payload aside). There is no
// fused multiply-add here, and every kernel clears the upper YMM halves
// (VZEROUPPER) before it returns.

DATA one<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, ret+0(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

// func mulAddRowAVX(o, b, cs []float64, offs []int)
//
// The output row is taken in blocks held in registers while every term
// is added to them: 32 elements in eight accumulators (enough
// independent additions to keep the adder busy), then 16 in four, then
// 4 at a time, then one at a time. Within a block, term t adds
// cs[t]·b[offs[t]+j] to element j, in ascending t.
TEXT ·mulAddRowAVX(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ cs_base+48(FP), R8
	MOVQ cs_len+56(FP), R9
	MOVQ offs_base+72(FP), R10
	TESTQ R9, R9
	JZ    rowdone           // no terms: o is unchanged
	XORQ  AX, AX            // j, the block's first element

block32:
	MOVQ CX, DX
	SUBQ AX, DX             // elements left
	CMPQ DX, $32
	JB   block16
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMOVUPD 128(DI)(AX*8), Y4
	VMOVUPD 160(DI)(AX*8), Y5
	VMOVUPD 192(DI)(AX*8), Y6
	VMOVUPD 224(DI)(AX*8), Y7
	LEAQ    (SI)(AX*8), R11 // &b[j]
	XORQ    BX, BX          // t

term32:
	VBROADCASTSD (R8)(BX*8), Y8 // cs[t]
	MOVQ         (R10)(BX*8), R12
	LEAQ         (R11)(R12*8), R12 // &b[offs[t]+j]
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R12), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R12), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R12), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R12), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R12), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R12), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R12), Y8, Y9
	VADDPD       Y9, Y7, Y7
	INCQ         BX
	CMPQ         BX, R9
	JB           term32
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	VMOVUPD Y4, 128(DI)(AX*8)
	VMOVUPD Y5, 160(DI)(AX*8)
	VMOVUPD Y6, 192(DI)(AX*8)
	VMOVUPD Y7, 224(DI)(AX*8)
	ADDQ    $32, AX
	JMP     block32

block16:
	CMPQ DX, $16
	JB   block4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	LEAQ    (SI)(AX*8), R11
	XORQ    BX, BX

term16:
	VBROADCASTSD (R8)(BX*8), Y8
	MOVQ         (R10)(BX*8), R12
	LEAQ         (R11)(R12*8), R12
	VMULPD       (R12), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R12), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R12), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R12), Y8, Y12
	VADDPD       Y12, Y3, Y3
	INCQ         BX
	CMPQ         BX, R9
	JB           term16
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX

block4:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JB   block1
	VMOVUPD (DI)(AX*8), Y0
	LEAQ    (SI)(AX*8), R11
	XORQ    BX, BX

term4:
	VBROADCASTSD (R8)(BX*8), Y8
	MOVQ         (R10)(BX*8), R12
	VMULPD       (R11)(R12*8), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         BX
	CMPQ         BX, R9
	JB           term4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     block4

block1:
	CMPQ   AX, CX
	JAE    rowdone
	VMOVSD (DI)(AX*8), X0
	LEAQ   (SI)(AX*8), R11
	XORQ   BX, BX

term1:
	VMOVSD (R8)(BX*8), X8
	MOVQ   (R10)(BX*8), R12
	VMULSD (R11)(R12*8), X8, X9
	VADDSD X9, X0, X0
	INCQ   BX
	CMPQ   BX, R9
	JB     term1
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    block1

rowdone:
	VZEROUPPER
	RET

// func adamAVX(w, m, v, g []float64, b1, b2, c1, c2, lr, eps float64)
//
// Four elements a pass, then one at a time. When c1 is exactly 1, R11
// is zero and the division m/c1, which would return m unchanged, is
// skipped.
TEXT ·adamAVX(SB), NOSPLIT, $0-144
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         m_base+24(FP), R8
	MOVQ         v_base+48(FP), R9
	MOVQ         g_base+72(FP), R10
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD b2+104(FP), Y10
	VBROADCASTSD one<>(SB), Y9
	VBROADCASTSD one<>(SB), Y11
	VSUBPD       Y8, Y9, Y9          // 1 − b1
	VSUBPD       Y10, Y11, Y11       // 1 − b2
	VBROADCASTSD c1+112(FP), Y12
	VBROADCASTSD c2+120(FP), Y13
	VBROADCASTSD lr+128(FP), Y14
	VBROADCASTSD eps+136(FP), Y15
	MOVQ         $1, R11
	VUCOMISD     one<>(SB), X12
	JNE          adamstart
	JPS          adamstart
	XORQ         R11, R11            // c1 == 1

adamstart:
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX
	JZ   adam1

adam4:
	VMOVUPD (R10)(AX*8), Y0      // g
	VMULPD  (R8)(AX*8), Y8, Y1   // b1·m
	VMULPD  Y0, Y9, Y2           // (1−b1)·g
	VADDPD  Y2, Y1, Y1           // m = b1·m + (1−b1)·g
	VMOVUPD Y1, (R8)(AX*8)
	VMULPD  (R9)(AX*8), Y10, Y3  // b2·v
	VMULPD  Y0, Y11, Y4          // (1−b2)·g
	VMULPD  Y0, Y4, Y4           // (1−b2)·g·g
	VADDPD  Y4, Y3, Y3           // v = b2·v + (1−b2)·g·g
	VMOVUPD Y3, (R9)(AX*8)
	TESTQ   R11, R11
	JZ      adam4mhat
	VDIVPD  Y12, Y1, Y1          // m̂ = m / c1

adam4mhat:
	VDIVPD  Y13, Y3, Y3          // v̂ = v / c2
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3          // √v̂ + ε
	VMULPD  Y14, Y1, Y1          // lr·m̂
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5           // w − lr·m̂ / (√v̂ + ε)
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      adam4

adam1:
	CMPQ    AX, CX
	JAE     adamdone
	VMOVSD  (R10)(AX*8), X0
	VMOVSD  (R8)(AX*8), X1
	VMULSD  X8, X1, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)(AX*8)
	VMOVSD  (R9)(AX*8), X3
	VMULSD  X10, X3, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)(AX*8)
	TESTQ   R11, R11
	JZ      adam1mhat
	VDIVSD  X12, X1, X1

adam1mhat:
	VDIVSD  X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VMULSD  X14, X1, X1
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*8), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)(AX*8)
	INCQ    AX
	JMP     adam1

adamdone:
	VZEROUPPER
	RET
