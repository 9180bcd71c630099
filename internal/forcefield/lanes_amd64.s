#include "go_asm.h"
#include "textflag.h"

// The lane kernels (see lanes.go). Both share one entry/row walk, built
// from the macros below; they differ only in their pair-math block (and
// the table kernel's first pass over each entry's rows). Register plan
// inside the entry loop:
//
//	DI  *laneArgs            SI  current entry
//	AX  laneMask<> base      BX  i-row a           DX  scratch
//	R8  remaining Mask bits  R9  remaining Mod bits
//	R10-R13  x, y, z, q of the entry's j-cluster
//	CX, R14  scratch (table kernel: record addresses, with AX and DX)
//	R12      table kernel, second pass: the row's laneRow
//	Y10-Y12  the j-cluster's fx, fy, fz (loaded per entry, stored after)
//	Y13      lane 3: running evdw      X14  (eelec, virial)
//	Y15      zero
//
// A pair-math block starts from Y3 = x and Y4 = the row's listed lanes
// (dx, dy, dz spilled) and must leave Y0 = ev, Y1 = fOverR, Y2 = ee,
// Y3 = x and Y4 = the active lanes for ROW_TAIL, with AX holding the
// laneMask<> base again.

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

// TRANSPOSE4 transposes the 4×4 block of rows R0..R3 through the
// temporary T: column 0 ends in R3, column 1 in R1, column 2 in T and
// column 3 in R0.
#define TRANSPOSE4(R0, R1, R2, R3, T) \
	VUNPCKLPD R1, R0, T \
	VUNPCKHPD R1, R0, R0 \
	VUNPCKLPD R3, R2, R1 \
	VUNPCKHPD R3, R2, R2 \
	VPERM2F128 $0x20, R1, T, R3 \
	VPERM2F128 $0x31, R1, T, T \
	VPERM2F128 $0x20, R2, R0, R1 \
	VPERM2F128 $0x31, R2, R0, R0

// PROLOGUE loads the running sums and the end of the entry run.
#define PROLOGUE \
	MOVQ k+0(FP), DI \
	MOVQ laneArgs_ent(DI), SI \
	MOVQ laneArgs_nent(DI), CX \
	LEAQ (CX)(CX*2), CX \
	LEAQ (SI)(CX*8), CX \
	MOVQ CX, laneArgs_end(DI) \
	VXORPD Y15, Y15, Y15 \
	VBROADCASTSD laneArgs_evdw(DI), Y13 \
	VMOVUPD laneArgs_ev(DI), X14 \
	LEAQ laneMask<>(SB), AX \
	CMPQ SI, CX \
	JEQ done

// ENTRY_HEAD points R10-R13 at the entry's j-cluster, loads its forces
// and 2·type lanes, and its Mask and Mod words.
#define ENTRY_HEAD \
	MOVLQSX 0(SI), DX \
	SHLQ $5, DX \ // J·N·8 with N = 4: byte offset of the j-cluster's float64 slots
	MOVQ laneArgs_xs(DI), R10 \
	ADDQ DX, R10 \
	MOVQ laneArgs_ys(DI), R11 \
	ADDQ DX, R11 \
	MOVQ laneArgs_zs(DI), R12 \
	ADDQ DX, R12 \
	MOVQ laneArgs_qs(DI), R13 \
	ADDQ DX, R13 \
	MOVQ laneArgs_fx(DI), R8 \
	VMOVUPD (R8)(DX*1), Y10 \
	MOVQ laneArgs_fy(DI), R8 \
	VMOVUPD (R8)(DX*1), Y11 \
	MOVQ laneArgs_fz(DI), R8 \
	VMOVUPD (R8)(DX*1), Y12 \
	SHRQ $1, DX \ // J·N·4: byte offset of the j-cluster's int32 types
	MOVQ laneArgs_typ(DI), R8 \
	VPMOVSXDQ (R8)(DX*1), Y0 \
	VPADDQ Y0, Y0, Y0 \
	VMOVDQU Y0, laneArgs_tj2(DI) \
	MOVQ 8(SI), R8 \
	MOVQ 16(SI), R9 \
	XORQ BX, BX

// DISPLACE leaves x = dx·dx + dy·dy + dz·dz of i-row BX in Y3, the
// displacements spilled to DXM, DYM, DZM for the force products.
#define DISPLACE(DXM, DYM, DZM) \
	MINIMAGE(laneArgs_xi, R10, laneArgs_hx, laneArgs_nhx, laneArgs_bx, laneArgs_nbx, Y0) \
	VMOVUPD Y0, DXM \
	VMULPD Y0, Y0, Y3 \
	MINIMAGE(laneArgs_yi, R11, laneArgs_hy, laneArgs_nhy, laneArgs_by, laneArgs_nby, Y0) \
	VMOVUPD Y0, DYM \
	VMULPD Y0, Y0, Y0 \
	VADDPD Y0, Y3, Y3 \
	MINIMAGE(laneArgs_zi, R12, laneArgs_hz, laneArgs_nhz, laneArgs_bz, laneArgs_nbz, Y0) \
	VMOVUPD Y0, DZM \
	VMULPD Y0, Y0, Y0 \
	VADDPD Y0, Y3, Y3

// LISTED skips an empty row; otherwise it loads the row's listed lanes
// into Y4.
#define LISTED \
	MOVQ R8, DX \
	ANDQ $15, DX \
	JZ nextrow \
	SHLQ $5, DX \
	VMOVUPD (AX)(DX*1), Y4

// ACTIVE narrows Y4 to the lanes the pure-Go kernel evaluates: listed,
// !(x >= rc2), !(x == 0).
#define ACTIVE \
	VCMPPD $0x09, laneArgs_rc2(DI), Y3, Y0 \
	VANDPD Y0, Y4, Y4 \
	VCMPPD $0x04, Y15, Y3, Y0 \
	VANDPD Y0, Y4, Y4

// PAIRPARAMS gathers the LJ parameters A (Y5) and B (Y6) at pair-table
// index ti·nt + tj (+ nt² on 1-4 lanes; indices are doubled because one
// pairParam spans two float64s) and forms qq = qa·qj, times scale14 on
// 1-4 lanes (Y9).
#define PAIRPARAMS \
	MOVQ R9, DX \
	ANDQ $15, DX \
	SHLQ $5, DX \
	VMOVUPD (AX)(DX*1), Y9 \ // 1-4 lanes
	VPBROADCASTQ laneArgs_rb2(DI)(BX*8), Y2 \
	VPADDQ laneArgs_tj2(DI), Y2, Y2 \
	VANDPD laneArgs_modOff(DI), Y9, Y0 \
	VPADDQ Y0, Y2, Y2 \
	MOVQ laneArgs_pair(DI), DX \
	VPCMPEQQ Y0, Y0, Y0 \
	VGATHERQPD Y0, (DX)(Y2*8), Y5 \
	VPCMPEQQ Y0, Y0, Y0 \
	VGATHERQPD Y0, 8(DX)(Y2*8), Y6 \
	VBROADCASTSD laneArgs_qai(DI)(BX*8), Y1 \
	VMULPD (R13), Y1, Y1 \
	VMULPD laneArgs_scale14(DI), Y1, Y2 \
	VBLENDVPD Y9, Y2, Y1, Y9

// ROW_TAIL applies one row's pair results, the displacements read from
// DXM, DYM, DZM: j-forces lane-wise, then the force products, ev, ee and
// fOverR·x of the active lanes (inactive lanes become +0) summed in
// ascending-lane order.
#define ROW_TAIL(DXM, DYM, DZM) \
	VMULPD Y1, Y3, Y3 \ // fOverR·x
	VMULPD DXM, Y1, Y5 \
	VMULPD DYM, Y1, Y6 \
	VMULPD DZM, Y1, Y7 \
	VANDPD Y4, Y5, Y5 \
	VANDPD Y4, Y6, Y6 \
	VANDPD Y4, Y7, Y7 \
	VANDPD Y4, Y0, Y0 \
	VANDPD Y4, Y2, Y2 \
	VANDPD Y4, Y3, Y3 \
	VSUBPD Y5, Y10, Y10 \
	VSUBPD Y6, Y11, Y11 \
	VSUBPD Y7, Y12, Y12 \
	\ // Transpose (fpx, fpy, fpz, ev) into per-lane columns and add them
	\ // in lane order onto (0, 0, 0, evdw): the i-row partials and the
	\ // van der Waals total in one ascending-bit chain.
	TRANSPOSE4(Y5, Y6, Y7, Y0, Y1) \
	VBLENDPD $8, Y13, Y15, Y7 \
	VADDPD Y0, Y7, Y7 \
	VADDPD Y6, Y7, Y7 \
	VADDPD Y1, Y7, Y7 \
	VADDPD Y5, Y7, Y13 \
	VBLENDPD $8, Y15, Y13, Y0 \
	MOVQ BX, DX \
	SHLQ $5, DX \
	VADDPD laneArgs_fi(DI)(DX*1), Y0, Y0 \
	VMOVUPD Y0, laneArgs_fi(DI)(DX*1) \
	\ // (eelec, virial) += (ee, fOverR·x), lane by lane.
	VUNPCKLPD Y3, Y2, Y0 \
	VUNPCKHPD Y3, Y2, Y1 \
	VADDPD X0, X14, X14 \
	VADDPD X1, X14, X14 \
	VEXTRACTF128 $1, Y0, X0 \
	VADDPD X0, X14, X14 \
	VEXTRACTF128 $1, Y1, X1 \
	VADDPD X1, X14, X14

// NEXT_ROW advances to the next i-row while Mask bits remain.
#define NEXT_ROW \
	SHRQ $4, R8 \
	SHRQ $4, R9 \
	INCQ BX \
	TESTQ R8, R8 \
	JNZ row

// ENTRY_TAIL stores the j-cluster's forces and advances to the next
// entry of the run.
#define ENTRY_TAIL \
	MOVLQSX 0(SI), DX \
	SHLQ $5, DX \
	MOVQ laneArgs_fx(DI), R8 \
	VMOVUPD Y10, (R8)(DX*1) \
	MOVQ laneArgs_fy(DI), R8 \
	VMOVUPD Y11, (R8)(DX*1) \
	MOVQ laneArgs_fz(DI), R8 \
	VMOVUPD Y12, (R8)(DX*1) \
	ADDQ $24, SI \
	CMPQ SI, laneArgs_end(DI) \
	JNE entry

// EPILOGUE stores the running sums back.
#define EPILOGUE \
	VEXTRACTF128 $1, Y13, X0 \
	VUNPCKHPD X0, X0, X0 \
	VMOVSD X0, laneArgs_evdw(DI) \
	VMOVUPD X14, laneArgs_ev(DI) \
	VZEROUPPER \
	RET

// func clusterLanesAVX2(k *laneArgs)
TEXT ·clusterLanesAVX2(SB), NOSPLIT, $0-8
	PROLOGUE

entry:
	ENTRY_HEAD

row:
	LISTED
	DISPLACE(laneArgs_dx(DI), laneArgs_dy(DI), laneArgs_dz(DI))

	// The divide and square root are issued as soon as x is known, and
	// the work that needs only x runs while they are in flight.
	VMOVUPD laneArgs_one(DI), Y8
	VDIVPD Y3, Y8, Y8 // invX = 1/x
	VSQRTPD Y3, Y7    // r
	ACTIVE
	PAIRPARAMS

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
	VADDPD Y9, Y1, Y1
	VMULPD laneArgs_negTwo(DI), Y1, Y1 // fOverR = −2·(dEdxVdw + dEdxElec)

	ROW_TAIL(laneArgs_dx(DI), laneArgs_dy(DI), laneArgs_dz(DI))

nextrow:
	NEXT_ROW
	ENTRY_TAIL

done:
	EPILOGUE

// func clusterTabLanesAVX2(k *laneArgs)
//
// Two passes per entry. The first computes every non-empty row's
// displacements, x, interpolation parameters and record addresses into
// laneArgs.rows and prefetches the records, so the table's cache misses
// for all rows of the entry are in flight together; the second runs the
// pair math row by row from the spilled values (R12 walks the rows).
TEXT ·clusterTabLanesAVX2(SB), NOSPLIT, $0-8
	PROLOGUE

entry:
	ENTRY_HEAD
	MOVQ R8, CX
	LEAQ laneArgs_rows(DI), R14

pre:
	TESTQ $15, CX
	JZ prenext
	DISPLACE(laneRow_dx(R14), laneRow_dy(R14), laneRow_dz(R14))
	VMOVUPD Y3, laneRow_x(R14)

	// Bin and interpolation parameter: xh = x·invH clamped to Bins in
	// the float domain (VMINPD with the constant second, so a NaN lane
	// reads the guard too), bin = trunc(xh), t = xh − bin, halfT =
	// halfH·t, record address tc + 96·bin.
	VMULPD laneArgs_invH(DI), Y3, Y0
	VMINPD laneArgs_bins(DI), Y0, Y0
	VCVTTPD2DQY Y0, X1
	VCVTDQ2PD X1, Y2
	VSUBPD Y2, Y0, Y0 // t
	VMOVUPD Y0, laneRow_t(R14)
	VMULPD laneArgs_halfH(DI), Y0, Y0
	VMOVUPD Y0, laneRow_halfT(R14)
	VPMOVZXDQ X1, Y1
	VPMULUDQ laneArgs_recBytes(DI), Y1, Y1
	VPBROADCASTQ laneArgs_tc(DI), Y2
	VPADDQ Y2, Y1, Y1
	VMOVDQU Y1, laneRow_addr(R14)
	MOVQ laneRow_addr+0(R14), DX
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	MOVQ laneRow_addr+8(R14), DX
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	MOVQ laneRow_addr+16(R14), DX
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)
	MOVQ laneRow_addr+24(R14), DX
	PREFETCHT0 (DX)
	PREFETCHT0 64(DX)

prenext:
	ADDQ $laneRow__size, R14
	INCQ BX
	SHRQ $4, CX
	JNZ pre
	XORQ BX, BX
	LEAQ laneArgs_rows(DI), R12

row:
	LISTED
	VMOVUPD laneRow_x(R12), Y3
	ACTIVE
	PAIRPARAMS
	VMOVUPD Y5, laneArgs_a(DI)
	VMOVUPD Y6, laneArgs_b(DI)
	VMOVUPD Y9, laneArgs_qq(DI)
	MOVQ laneRow_addr+0(R12), DX
	MOVQ laneRow_addr+8(R12), R14
	MOVQ laneRow_addr+16(R12), AX
	MOVQ laneRow_addr+24(R12), CX

	// Coefficient columns: each 128-bit load takes a coefficient pair of
	// one lane's record, lanes 0 and 2 (1 and 3) share a register, and
	// one unpack per column interleaves them. Words 0..3 → c0 (Y0),
	// c1 (Y5), c2 (Y6), c3 (Y7); dr = c1 + t·c2, A·dr and
	// A·(c0 + halfT·(c1 + dr)).
	VMOVUPD (DX), X5
	VINSERTF128 $1, (AX), Y5, Y5
	VMOVUPD (R14), X6
	VINSERTF128 $1, (CX), Y6, Y6
	VMOVUPD 16(DX), X7
	VINSERTF128 $1, 16(AX), Y7, Y7
	VMOVUPD 16(R14), X8
	VINSERTF128 $1, 16(CX), Y8, Y8
	VUNPCKLPD Y6, Y5, Y0
	VUNPCKHPD Y6, Y5, Y5
	VUNPCKLPD Y8, Y7, Y6
	VUNPCKHPD Y8, Y7, Y7
	VMULPD laneRow_t(R12), Y6, Y6
	VADDPD Y6, Y5, Y6 // dr
	VADDPD Y6, Y5, Y5
	VMULPD laneRow_halfT(R12), Y5, Y5
	VADDPD Y5, Y0, Y0
	VMULPD laneArgs_a(DI), Y6, Y6 // A·dr
	VMULPD laneArgs_a(DI), Y0, Y0 // A·(c0 + halfT·(c1 + dr))

	// Words 4..7 → c4 (Y9), c5 (Y1), c6 (Y2), c7 (Y5);
	// dd = c4 + t·c5, A·dr + B·dd and
	// ev = A·(…) + B·(c3 + halfT·(c4 + dd)).
	VMOVUPD 32(DX), X1
	VINSERTF128 $1, 32(AX), Y1, Y1
	VMOVUPD 32(R14), X2
	VINSERTF128 $1, 32(CX), Y2, Y2
	VMOVUPD 48(DX), X5
	VINSERTF128 $1, 48(AX), Y5, Y5
	VMOVUPD 48(R14), X8
	VINSERTF128 $1, 48(CX), Y8, Y8
	VUNPCKLPD Y2, Y1, Y9
	VUNPCKHPD Y2, Y1, Y1
	VUNPCKLPD Y8, Y5, Y2
	VUNPCKHPD Y8, Y5, Y5
	VMULPD laneRow_t(R12), Y1, Y1
	VADDPD Y1, Y9, Y1 // dd
	VADDPD Y1, Y9, Y9
	VMULPD laneRow_halfT(R12), Y9, Y9
	VADDPD Y9, Y7, Y7
	VMULPD laneArgs_b(DI), Y1, Y1
	VADDPD Y1, Y6, Y6 // A·dr + B·dd
	VMULPD laneArgs_b(DI), Y7, Y7
	VADDPD Y7, Y0, Y0 // ev

	// Word 8 → c8 (Y1); de = c7 + t·c8,
	// dEdx = (A·dr + B·dd) + qq·de, ee = qq·(c6 + halfT·(c7 + de)).
	VMOVUPD 64(DX), X1
	VINSERTF128 $1, 64(AX), Y1, Y1
	VMOVUPD 64(R14), X7
	VINSERTF128 $1, 64(CX), Y7, Y7
	VUNPCKLPD Y7, Y1, Y1
	VMULPD laneRow_t(R12), Y1, Y1
	VADDPD Y1, Y5, Y1 // de
	VADDPD Y1, Y5, Y5
	VMULPD laneRow_halfT(R12), Y5, Y5
	VADDPD Y5, Y2, Y2
	VMULPD laneArgs_qq(DI), Y1, Y1
	VADDPD Y1, Y6, Y1 // dEdx
	VMULPD laneArgs_qq(DI), Y2, Y2 // ee
	VMULPD laneArgs_negTwo(DI), Y1, Y1 // fOverR = −2·dEdx
	LEAQ laneMask<>(SB), AX

	ROW_TAIL(laneRow_dx(R12), laneRow_dy(R12), laneRow_dz(R12))

nextrow:
	ADDQ $laneRow__size, R12
	NEXT_ROW
	ENTRY_TAIL

done:
	EPILOGUE

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
