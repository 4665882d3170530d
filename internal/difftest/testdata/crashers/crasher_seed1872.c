int arr0[64];
int gv0 = 43;
int gv1 = 4;
int gv2 = 15;

int clamp255(int x) {
  if (x < 0) return 0;
  if (x > 255) return 255;
  return x;
}
int mix(int a, int b) { return (a ^ b) + ((a & b) << 1); }
int bench(void) {
  int v0 = 38;
  int v1 = 10;
  int v2 = 14;
  gv1 = ((v2 >> v2) - (arr0[(v1) & 63] | arr0[(v0) & 63]));
  arr0[((v1 ? 26 : arr0[(v2) & 63])) & 63] = (clamp255(gv1) + (gv2 << v2));
  if ((gv2 * arr0[(v0) & 63])) {
    arr0[(arr0[(v0) & 63]) & 63] = (gv0 ? (arr0[(v0) & 63] + gv1) : (arr0[(v2) & 63] + v2));
  } else {
    { int i0;
    for (i0 = 0; i0 < 59; i0++) {
      arr0[(clamp255(v0)) & 63] = ((arr0[(v2) & 63] / ((v1 & 7) + 1)) == (gv2 ? arr0[(v1) & 63] : v2));
    }
    }
  }
  arr0[((gv0 + arr0[(v0) & 63])) & 63] = ((arr0[(v0) & 63] << arr0[(v2) & 63]) - (gv0 | v1));
  v2 = ((30 ? arr0[(v2) & 63] : v0) - (gv0 != arr0[(v1) & 63]));
  { int i0;
  for (i0 = 0; i0 < 61; i0++) {
    arr0[((gv0 != v1)) & 63] = ((55 >> arr0[(v0) & 63]) - (gv2 - arr0[(v1) & 63]));
    gv0 = ((gv1 + 31) <= (arr0[(v0) & 63] + v0));
  }
  }
  arr0[((gv2 != gv2)) & 63] = ((53 << arr0[(v1) & 63]) + arr0[(v1) & 63]);
  if ((24 * v0)) {
    gv0 = (arr0[(v1) & 63] & (v2 < arr0[(v2) & 63]));
  } else {
    if (arr0[(v1) & 63]) {
      if (gv1) {
        arr0[(61) & 63] = ((gv0 + v1) + (30 << gv2));
      } else {
        arr0[((v2 << gv2)) & 63] = ((arr0[(v1) & 63] / ((gv1 & 7) + 1)) | (gv0 / ((56 & 7) + 1)));
      }
    } else {
      if ((v1 - v2)) {
        arr0[((v1 - gv0)) & 63] = ((gv0 / ((10 & 7) + 1)) - (gv1 / ((31 & 7) + 1)));
      }
    }
  }
  int chk = 0;
  int ci;
  for (ci = 0; ci < 64; ci++) chk = chk * 31 + arr0[ci];
  chk = chk * 17 + gv0;
  chk = chk * 17 + gv1;
  chk = chk * 17 + gv2;
  chk = chk * 13 + v0;
  chk = chk * 13 + v1;
  chk = chk * 13 + v2;
  return chk & 0x7fffffff;
}
