#include "go_asm.h"
#include "textflag.h"

// The lane kernel (see lanes.go). Register plan inside the entry loop:
//
//	DI  *laneArgs            SI  current entry     CX  end of the entry run
//	AX  laneMask<> base      BX  i-row a           DX  scratch
//	R8  remaining Mask bits  R9  remaining Mod bits
//	R10-R13  x, y, z, q of the entry's j-cluster
//	Y10-Y12  the j-cluster's fx, fy, fz (loaded per entry, stored after)
//	Y13      lane 3: running evdw      X14  (eelec, virial)
//	Y15      zero

// laneMask<>: row r (0..15) is four 64-bit lanes, lane b all-ones iff
// bit b of r is set — turns a 4-bit row of Mask or Mod into a lane mask.
DATA laneMask<>+0(SB)/8, $0
DATA laneMask<>+8(SB)/8, $0
DATA laneMask<>+16(SB)/8, $0
DATA laneMask<>+24(SB)/8, $0
DATA laneMask<>+32(SB)/8, $0xffffffffffffffff
DATA laneMask<>+40(SB)/8, $0
DATA laneMask<>+48(SB)/8, $0
DATA laneMask<>+56(SB)/8, $0
DATA laneMask<>+64(SB)/8, $0
DATA laneMask<>+72(SB)/8, $0xffffffffffffffff
DATA laneMask<>+80(SB)/8, $0
DATA laneMask<>+88(SB)/8, $0
DATA laneMask<>+96(SB)/8, $0xffffffffffffffff
DATA laneMask<>+104(SB)/8, $0xffffffffffffffff
DATA laneMask<>+112(SB)/8, $0
DATA laneMask<>+120(SB)/8, $0
DATA laneMask<>+128(SB)/8, $0
DATA laneMask<>+136(SB)/8, $0
DATA laneMask<>+144(SB)/8, $0xffffffffffffffff
DATA laneMask<>+152(SB)/8, $0
DATA laneMask<>+160(SB)/8, $0xffffffffffffffff
DATA laneMask<>+168(SB)/8, $0
DATA laneMask<>+176(SB)/8, $0xffffffffffffffff
DATA laneMask<>+184(SB)/8, $0
DATA laneMask<>+192(SB)/8, $0
DATA laneMask<>+200(SB)/8, $0xffffffffffffffff
DATA laneMask<>+208(SB)/8, $0xffffffffffffffff
DATA laneMask<>+216(SB)/8, $0
DATA laneMask<>+224(SB)/8, $0xffffffffffffffff
DATA laneMask<>+232(SB)/8, $0xffffffffffffffff
DATA laneMask<>+240(SB)/8, $0xffffffffffffffff
DATA laneMask<>+248(SB)/8, $0
DATA laneMask<>+256(SB)/8, $0
DATA laneMask<>+264(SB)/8, $0
DATA laneMask<>+272(SB)/8, $0
DATA laneMask<>+280(SB)/8, $0xffffffffffffffff
DATA laneMask<>+288(SB)/8, $0xffffffffffffffff
DATA laneMask<>+296(SB)/8, $0
DATA laneMask<>+304(SB)/8, $0
DATA laneMask<>+312(SB)/8, $0xffffffffffffffff
DATA laneMask<>+320(SB)/8, $0
DATA laneMask<>+328(SB)/8, $0xffffffffffffffff
DATA laneMask<>+336(SB)/8, $0
DATA laneMask<>+344(SB)/8, $0xffffffffffffffff
DATA laneMask<>+352(SB)/8, $0xffffffffffffffff
DATA laneMask<>+360(SB)/8, $0xffffffffffffffff
DATA laneMask<>+368(SB)/8, $0
DATA laneMask<>+376(SB)/8, $0xffffffffffffffff
DATA laneMask<>+384(SB)/8, $0
DATA laneMask<>+392(SB)/8, $0
DATA laneMask<>+400(SB)/8, $0xffffffffffffffff
DATA laneMask<>+408(SB)/8, $0xffffffffffffffff
DATA laneMask<>+416(SB)/8, $0xffffffffffffffff
DATA laneMask<>+424(SB)/8, $0
DATA laneMask<>+432(SB)/8, $0xffffffffffffffff
DATA laneMask<>+440(SB)/8, $0xffffffffffffffff
DATA laneMask<>+448(SB)/8, $0
DATA laneMask<>+456(SB)/8, $0xffffffffffffffff
DATA laneMask<>+464(SB)/8, $0xffffffffffffffff
DATA laneMask<>+472(SB)/8, $0xffffffffffffffff
DATA laneMask<>+480(SB)/8, $0xffffffffffffffff
DATA laneMask<>+488(SB)/8, $0xffffffffffffffff
DATA laneMask<>+496(SB)/8, $0xffffffffffffffff
DATA laneMask<>+504(SB)/8, $0xffffffffffffffff
GLOBL laneMask<>(SB), RODATA|NOPTR, $512

// MINIMAGE leaves in DST the minimum-image displacement xi[a] − xj for
// one axis: compare + bitwise select picks +box (d > h), −box (d < −h) or
// +0 per lane, and one subtraction applies it — d − box, d − (−box) ≡
// d + box and d − (+0) ≡ d are exactly the pure-Go branches' results.
#define MINIMAGE(XI, XJ, H, NH, B, NB, DST) \
	VBROADCASTSD XI(DI)(BX*8), DST \
	VSUBPD (XJ), DST, DST \
	VCMPPD $0x1e, H(DI), DST, Y1 \
	VCMPPD $0x11, NH(DI), DST, Y2 \
	VANDPD B(DI), Y1, Y1 \
	VANDPD NB(DI), Y2, Y2 \
	VORPD Y2, Y1, Y1 \
	VSUBPD Y1, DST, DST

// func clusterLanesAVX2(k *laneArgs)
TEXT ·clusterLanesAVX2(SB), NOSPLIT, $0-8
	MOVQ k+0(FP), DI
	MOVQ laneArgs_ent(DI), SI
	MOVQ laneArgs_nent(DI), CX
	LEAQ (CX)(CX*2), CX
	LEAQ (SI)(CX*8), CX
	VXORPD Y15, Y15, Y15
	VBROADCASTSD laneArgs_evdw(DI), Y13
	VMOVUPD laneArgs_ev(DI), X14
	LEAQ laneMask<>(SB), AX
	CMPQ SI, CX
	JEQ done

entry:
	MOVLQSX 0(SI), DX
	SHLQ $5, DX // J·N·8 with N = 4: byte offset of the j-cluster's float64 slots
	MOVQ laneArgs_xs(DI), R10
	ADDQ DX, R10
	MOVQ laneArgs_ys(DI), R11
	ADDQ DX, R11
	MOVQ laneArgs_zs(DI), R12
	ADDQ DX, R12
	MOVQ laneArgs_qs(DI), R13
	ADDQ DX, R13
	MOVQ laneArgs_fx(DI), R8
	VMOVUPD (R8)(DX*1), Y10
	MOVQ laneArgs_fy(DI), R8
	VMOVUPD (R8)(DX*1), Y11
	MOVQ laneArgs_fz(DI), R8
	VMOVUPD (R8)(DX*1), Y12
	SHRQ $1, DX // J·N·4: byte offset of the j-cluster's int32 types
	MOVQ laneArgs_typ(DI), R8
	VPMOVSXDQ (R8)(DX*1), Y0
	VPADDQ Y0, Y0, Y0
	VMOVDQU Y0, laneArgs_tj2(DI)
	MOVQ 8(SI), R8
	MOVQ 16(SI), R9
	XORQ BX, BX

row:
	MOVQ R8, DX
	ANDQ $15, DX
	JZ nextrow
	SHLQ $5, DX
	VMOVUPD (AX)(DX*1), Y4 // listed lanes

	// Displacements (spilled for the force products) and x = r²; the
	// divide and square root are issued as soon as x is known, and the
	// work that needs only x runs while they are in flight.
	MINIMAGE(laneArgs_xi, R10, laneArgs_hx, laneArgs_nhx, laneArgs_bx, laneArgs_nbx, Y0)
	VMOVUPD Y0, laneArgs_dx(DI)
	VMULPD Y0, Y0, Y3
	MINIMAGE(laneArgs_yi, R11, laneArgs_hy, laneArgs_nhy, laneArgs_by, laneArgs_nby, Y0)
	VMOVUPD Y0, laneArgs_dy(DI)
	VMULPD Y0, Y0, Y0
	VADDPD Y0, Y3, Y3
	MINIMAGE(laneArgs_zi, R12, laneArgs_hz, laneArgs_nhz, laneArgs_bz, laneArgs_nbz, Y0)
	VMOVUPD Y0, laneArgs_dz(DI)
	VMULPD Y0, Y0, Y0
	VADDPD Y0, Y3, Y3 // x = dx·dx + dy·dy + dz·dz
	VMOVUPD laneArgs_one(DI), Y8
	VDIVPD Y3, Y8, Y8 // invX = 1/x
	VSQRTPD Y3, Y7    // r

	// Active lanes: listed, !(x >= rc2), !(x == 0).
	VCMPPD $0x09, laneArgs_rc2(DI), Y3, Y0
	VANDPD Y0, Y4, Y4
	VCMPPD $0x04, Y15, Y3, Y0
	VANDPD Y0, Y4, Y4

	// LJ parameters: gather A and B at pair-table index ti·nt + tj
	// (+ nt² on 1-4 lanes); indices are doubled because one pairParam
	// spans two float64s.
	MOVQ R9, DX
	ANDQ $15, DX
	SHLQ $5, DX
	VMOVUPD (AX)(DX*1), Y9 // 1-4 lanes
	VPBROADCASTQ laneArgs_rb2(DI)(BX*8), Y2
	VPADDQ laneArgs_tj2(DI), Y2, Y2
	VANDPD laneArgs_modOff(DI), Y9, Y0
	VPADDQ Y0, Y2, Y2
	MOVQ laneArgs_pair(DI), DX
	VPCMPEQQ Y0, Y0, Y0
	VGATHERQPD Y0, (DX)(Y2*8), Y5 // A
	VPCMPEQQ Y0, Y0, Y0
	VGATHERQPD Y0, 8(DX)(Y2*8), Y6 // B

	// qq = qa·qj, times scale14 on 1-4 lanes.
	VBROADCASTSD laneArgs_qai(DI)(BX*8), Y1
	VMULPD (R13), Y1, Y1
	VMULPD laneArgs_scale14(DI), Y1, Y2
	VBLENDVPD Y9, Y2, Y1, Y9

	// Switching polynomials (spilled): sw = d·d·(sw3 + 2·x)·invDenom,
	// dswdx = d·(rs2 − x)·invDenom6, d = rc2 − x.
	VMOVUPD laneArgs_rc2(DI), Y0
	VSUBPD Y3, Y0, Y0
	VMULPD laneArgs_two(DI), Y3, Y1
	VADDPD laneArgs_sw3(DI), Y1, Y1
	VMULPD Y0, Y0, Y2
	VMULPD Y1, Y2, Y2
	VMULPD laneArgs_invDenom(DI), Y2, Y2
	VMOVUPD Y2, laneArgs_sw(DI)
	VMOVUPD laneArgs_rs2(DI), Y1
	VSUBPD Y3, Y1, Y1
	VMULPD Y1, Y0, Y0
	VMULPD laneArgs_invDenom6(DI), Y0, Y0
	VMOVUPD Y0, laneArgs_dswdx(DI)

	// Shifted Coulomb: sh = 1 − x·invRc2, ee = qir·sh·sh and
	// dEdxElec = −qir·(0.5·sh·sh·invX + 2·sh·invRc2), qir = qq·invR.
	VMULPD laneArgs_invRc2(DI), Y3, Y0
	VMOVUPD laneArgs_one(DI), Y1
	VSUBPD Y0, Y1, Y1 // sh
	VMULPD Y1, Y1, Y2 // shsh
	VMULPD laneArgs_two(DI), Y1, Y1
	VMULPD laneArgs_invRc2(DI), Y1, Y1
	VMULPD laneArgs_half(DI), Y2, Y0
	VMULPD Y8, Y0, Y0
	VADDPD Y1, Y0, Y0
	VMULPD Y8, Y7, Y7 // invR = r·invX
	VMULPD Y7, Y9, Y9 // qir
	VMULPD Y9, Y2, Y2 // ee
	VXORPD laneArgs_signBit(DI), Y9, Y9
	VMULPD Y0, Y9, Y9 // dEdxElec

	// Lennard-Jones, switched where x > rs2.
	VMULPD Y8, Y8, Y0
	VMULPD Y8, Y0, Y0 // invX3 = invX·invX·invX
	VMULPD Y0, Y5, Y5
	VMULPD Y0, Y5, Y5 // a6 = A·invX3·invX3
	VMULPD Y0, Y6, Y6 // b3 = B·invX3
	VSUBPD Y6, Y5, Y7 // v = a6 − b3
	VMULPD laneArgs_three(DI), Y6, Y6
	VMULPD laneArgs_six(DI), Y5, Y5
	VSUBPD Y5, Y6, Y6
	VMULPD Y8, Y6, Y6 // dvdx = (3·b3 − 6·a6)·invX
	VMULPD laneArgs_sw(DI), Y7, Y0 // v·sw
	VMULPD laneArgs_sw(DI), Y6, Y1
	VMULPD laneArgs_dswdx(DI), Y7, Y5
	VADDPD Y5, Y1, Y1 // dvdx·sw + v·dswdx
	VCMPPD $0x12, laneArgs_rs2(DI), Y3, Y5 // x <= rs2
	VBLENDVPD Y5, Y7, Y0, Y0 // ev
	VBLENDVPD Y5, Y6, Y1, Y1 // dEdxVdw

	// Force, virial, energies; inactive lanes become +0.
	VADDPD Y9, Y1, Y1
	VMULPD laneArgs_negTwo(DI), Y1, Y1 // fOverR = −2·(dEdxVdw + dEdxElec)
	VMULPD Y1, Y3, Y3 // fOverR·x
	VMULPD laneArgs_dx(DI), Y1, Y5
	VMULPD laneArgs_dy(DI), Y1, Y6
	VMULPD laneArgs_dz(DI), Y1, Y7
	VANDPD Y4, Y5, Y5
	VANDPD Y4, Y6, Y6
	VANDPD Y4, Y7, Y7
	VANDPD Y4, Y0, Y0
	VANDPD Y4, Y2, Y2
	VANDPD Y4, Y3, Y3
	VSUBPD Y5, Y10, Y10
	VSUBPD Y6, Y11, Y11
	VSUBPD Y7, Y12, Y12

	// Transpose (fpx, fpy, fpz, ev) into per-lane columns and add them
	// in lane order onto (0, 0, 0, evdw): the i-row partials and the
	// van der Waals total in one ascending-bit chain.
	VUNPCKLPD Y6, Y5, Y1
	VUNPCKHPD Y6, Y5, Y5
	VUNPCKLPD Y0, Y7, Y6
	VUNPCKHPD Y0, Y7, Y7
	VPERM2F128 $0x20, Y6, Y1, Y0 // lane 0
	VPERM2F128 $0x31, Y6, Y1, Y1 // lane 2
	VPERM2F128 $0x20, Y7, Y5, Y6 // lane 1
	VPERM2F128 $0x31, Y7, Y5, Y5 // lane 3
	VBLENDPD $8, Y13, Y15, Y7
	VADDPD Y0, Y7, Y7
	VADDPD Y6, Y7, Y7
	VADDPD Y1, Y7, Y7
	VADDPD Y5, Y7, Y13
	VBLENDPD $8, Y15, Y13, Y0
	MOVQ BX, DX
	SHLQ $5, DX
	VADDPD laneArgs_fi(DI)(DX*1), Y0, Y0
	VMOVUPD Y0, laneArgs_fi(DI)(DX*1)

	// (eelec, virial) += (ee, fOverR·x), lane by lane.
	VUNPCKLPD Y3, Y2, Y0
	VUNPCKHPD Y3, Y2, Y1
	VADDPD X0, X14, X14
	VADDPD X1, X14, X14
	VEXTRACTF128 $1, Y0, X0
	VADDPD X0, X14, X14
	VEXTRACTF128 $1, Y1, X1
	VADDPD X1, X14, X14

nextrow:
	SHRQ $4, R8
	SHRQ $4, R9
	INCQ BX
	TESTQ R8, R8
	JNZ row

	MOVLQSX 0(SI), DX
	SHLQ $5, DX
	MOVQ laneArgs_fx(DI), R8
	VMOVUPD Y10, (R8)(DX*1)
	MOVQ laneArgs_fy(DI), R8
	VMOVUPD Y11, (R8)(DX*1)
	MOVQ laneArgs_fz(DI), R8
	VMOVUPD Y12, (R8)(DX*1)
	ADDQ $24, SI
	CMPQ SI, CX
	JNE entry

done:
	VEXTRACTF128 $1, Y13, X0
	VUNPCKHPD X0, X0, X0
	VMOVSD X0, laneArgs_evdw(DI)
	VMOVUPD X14, laneArgs_ev(DI)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
