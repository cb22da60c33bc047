/* SHA-256 compression kernel (FIPS 180-4, section 6.2.2).

   One entry point compresses [n] contiguous 64-byte blocks of a string,
   starting at byte [off], into an eight-word state held in an OCaml
   [int array]. Two implementations sit behind it:

   - SHA-NI: the x86 SHA extensions (sha256rnds2 / sha256msg1 /
     sha256msg2), compiled with a per-function target attribute so the
     rest of the build needs no extra -m flags;
   - portable: a plain C loop for every other host.

   The kernel is chosen once, by a load-time constructor that asks
   __builtin_cpu_supports for "sha" and "sse4.1"; the hot path is a single
   indirect call. The two implementations are also exported under their
   own names so the test suite can check them against each other. */

#include <stdint.h>
#include <caml/mlvalues.h>

typedef void (*compress_fn)(uint32_t st[8], const unsigned char *p, intnat n);

static const uint32_t K[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
  0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
  0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
  0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
  0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
  0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
  0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
  0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
  0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/* --- portable ---------------------------------------------------------- */

#define ROTR(x, r) (((x) >> (r)) | ((x) << (32 - (r))))

static inline uint32_t load_be32(const unsigned char *p)
{
  return ((uint32_t)p[0] << 24) | ((uint32_t)p[1] << 16) | ((uint32_t)p[2] << 8) | p[3];
}

static void compress_portable(uint32_t st[8], const unsigned char *p, intnat n)
{
  uint32_t w[64];
  for (; n > 0; n--, p += 64) {
    for (int t = 0; t < 16; t++) w[t] = load_be32(p + 4 * t);
    for (int t = 16; t < 64; t++) {
      uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
      uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }
    uint32_t a = st[0], b = st[1], c = st[2], d = st[3];
    uint32_t e = st[4], f = st[5], g = st[6], h = st[7];
    for (int t = 0; t < 64; t++) {
      uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25)) + (g ^ (e & (f ^ g))) + K[t] + w[t];
      uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22)) + ((a & b) | (c & (a | b)));
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    st[0] += a; st[1] += b; st[2] += c; st[3] += d;
    st[4] += e; st[5] += f; st[6] += g; st[7] += h;
  }
}

/* --- SHA-NI ------------------------------------------------------------ */

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* Four rounds on the message quad [m] (words 4i..4i+3 of the schedule). */
#define RNDS4(m, i)                                                          \
  do {                                                                       \
    __m128i k_ = _mm_add_epi32((m), _mm_loadu_si128((const __m128i *)&K[4 * (i)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, k_);                            \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(k_, 0x0E));   \
  } while (0)

/* Finish schedule quad [next] from the two quads before it. */
#define MSG2(next, cur, prev) \
  next = _mm_sha256msg2_epu32(_mm_add_epi32(next, _mm_alignr_epi8(cur, prev, 4)), cur)

__attribute__((target("sha,sse4.1")))
static void compress_shani(uint32_t st[8], const unsigned char *p, intnat n)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  /* the round instructions want the state as ABEF / CDGH */
  __m128i dcba = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  __m128i abef = _mm_alignr_epi8(dcba, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, dcba, 0xF0);
  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    RNDS4(m0, 0);
    RNDS4(m1, 1); m0 = _mm_sha256msg1_epu32(m0, m1);
    RNDS4(m2, 2); m1 = _mm_sha256msg1_epu32(m1, m2);
    RNDS4(m3, 3); MSG2(m0, m3, m2); m2 = _mm_sha256msg1_epu32(m2, m3);
    for (int i = 4; i < 12; i += 4) {
      RNDS4(m0, i);     MSG2(m1, m0, m3); m3 = _mm_sha256msg1_epu32(m3, m0);
      RNDS4(m1, i + 1); MSG2(m2, m1, m0); m0 = _mm_sha256msg1_epu32(m0, m1);
      RNDS4(m2, i + 2); MSG2(m3, m2, m1); m1 = _mm_sha256msg1_epu32(m1, m2);
      RNDS4(m3, i + 3); MSG2(m0, m3, m2); m2 = _mm_sha256msg1_epu32(m2, m3);
    }
    RNDS4(m0, 12); MSG2(m1, m0, m3); m3 = _mm_sha256msg1_epu32(m3, m0);
    RNDS4(m1, 13); MSG2(m2, m1, m0);
    RNDS4(m2, 14); MSG2(m3, m2, m1);
    RNDS4(m3, 15);
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

static int shani_supported(void)
{
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
#else
/* Not an x86-64 build: the SHA-NI entry point exists for the tests'
   benefit but reports itself unsupported and runs the portable loop. */
#define compress_shani compress_portable
static int shani_supported(void) { return 0; }
#endif

static compress_fn compress_impl = compress_portable;

__attribute__((constructor))
static void select_kernel(void)
{
  if (shani_supported()) compress_impl = compress_shani;
}

/* --- OCaml entry points -------------------------------------------------- */

/* The state crosses as eight tagged ints holding 32-bit words. Every field
   stays an immediate, so plain stores need no write barrier, and nothing
   here allocates or raises: the externals are [@@noalloc]. */
static inline value run(compress_fn f, value h, value s, intnat off, intnat n)
{
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  f(st, (const unsigned char *)String_val(s) + off, n);
  for (int i = 0; i < 8; i++) Field(h, i) = Val_long(st[i]);
  return Val_unit;
}

value bft_sha256_compress(value h, value s, intnat off, intnat n)
{
  return run(compress_impl, h, s, off, n);
}

value bft_sha256_compress_byte(value h, value s, value off, value n)
{
  return run(compress_impl, h, s, Long_val(off), Long_val(n));
}

value bft_sha256_compress_portable(value h, value s, intnat off, intnat n)
{
  return run(compress_portable, h, s, off, n);
}

value bft_sha256_compress_portable_byte(value h, value s, value off, value n)
{
  return run(compress_portable, h, s, Long_val(off), Long_val(n));
}

value bft_sha256_compress_shani(value h, value s, intnat off, intnat n)
{
  return run(compress_shani, h, s, off, n);
}

value bft_sha256_compress_shani_byte(value h, value s, value off, value n)
{
  return run(compress_shani, h, s, Long_val(off), Long_val(n));
}

value bft_sha256_shani_supported(value unit)
{
  (void)unit;
  return Val_bool(shani_supported());
}
