#include "engine/eval.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "common/check.h"
#include "opt/analyses.h"
#include "opt/verify.h"
#include "xml/serializer.h"
#include "xml/step.h"

namespace exrquy {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Resolves EvalContext::num_threads: explicit > EXRQUY_THREADS > hardware.
size_t ResolveThreads(int requested) {
  int v = requested;
  if (v <= 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at resolve
    if (const char* env = std::getenv("EXRQUY_THREADS")) v = std::atoi(env);
  }
  if (v <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    v = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return static_cast<size_t>(std::min(v, 256));
}

// Resolves EvalContext::morsel_rows: explicit > EXRQUY_MORSEL_ROWS >
// chunk_rows. A pure function of configuration — never of the thread
// count — so morsel boundaries are too.
size_t ResolveMorselRows(size_t requested, size_t chunk_rows) {
  size_t v = requested;
  if (v == 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup at resolve
    if (const char* env = std::getenv("EXRQUY_MORSEL_ROWS")) {
      long parsed = std::atol(env);
      if (parsed > 0) v = static_cast<size_t>(parsed);
    }
  }
  return v == 0 ? chunk_rows : v;
}

// Node constructors append to the NodeStore; NodeIdx values are allocation
// -ordered, so these operators must run in the same order as the serial
// engine (ascending op id) for results to be byte-identical.
bool IsNodeConstructor(OpKind k) {
  return k == OpKind::kElem || k == OpKind::kAttr || k == OpKind::kTextNode;
}

// What a standalone kernel reports into its operator's profile record,
// through a pointer set around EvalOp (chunked kernels run on the same
// thread as their dispatch).
struct KernelNotes {
  size_t chunks = 1;
  uint64_t theta_fallback_pairs = 0;
};
thread_local KernelNotes* tls_notes = nullptr;

void NoteChunks(size_t chunks) {
  if (tls_notes != nullptr) {
    tls_notes->chunks = std::max(tls_notes->chunks, chunks);
  }
}

void NoteThetaFallback(uint64_t pairs) {
  if (tls_notes != nullptr) tls_notes->theta_fallback_pairs += pairs;
}

// Key normalization for value joins: general comparison treats xs:string
// and xs:untypedAtomic alike (both compare by string value), so a hash
// join over value keys must not let the kind tag split equal keys into
// different buckets. The verifier's [join-isolation-claim] audit confines
// value_join keys to {int, string-class, bool}, where bit equality under
// this normalization coincides exactly with `eq`.
Value NormalizeValueKey(const Value& v) {
  return v.kind == ValueKind::kUntyped ? Value::Str(v.str) : v;
}

// The engine's one hash table: open addressing over at most `capacity`
// dense ids in one flat slot array — linear probing at load <= 2/3, each
// slot a 32-bit hash and an id — so building n entries is one
// allocation, never one vector per bucket, and a probe usually touches
// one cache line. Read-only once built, so concurrent probes are safe.
class FlatHashTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  explicit FlatHashTable(size_t capacity)
      : slots_(capacity + capacity / 2 + 1, Slot{0, kEnd}) {}

  void Insert(uint32_t id, uint64_t h) {
    const uint32_t tag = Hash32(h);
    size_t i = Home(tag);
    while (slots_[i].id != kEnd) i = Next(i);
    slots_[i] = Slot{tag, id};
  }

  // Calls fn(id) for the ids inserted under hash `h` until fn returns
  // true; returns that id, or kEnd.
  template <typename Fn>
  uint32_t Find(uint64_t h, Fn fn) const {
    const uint32_t tag = Hash32(h);
    for (size_t i = Home(tag); slots_[i].id != kEnd; i = Next(i)) {
      if (slots_[i].tag == tag && fn(slots_[i].id)) return slots_[i].id;
    }
    return kEnd;
  }

  // Starts loading the slot where an Insert/Find of `h` begins.
  void Prefetch(uint64_t h) const {
    __builtin_prefetch(&slots_[Home(Hash32(h))]);
  }

 private:
  struct Slot {
    uint32_t tag;  // the mixed hash; Home() derives the slot from it
    uint32_t id;
  };

  // A murmur3-style finalizer (one multiply round); the high half.
  static uint32_t Hash32(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<uint32_t>(h >> 32);
  }
  // Maps the hash onto [0, slots) by multiply-shift.
  size_t Home(uint32_t tag) const {
    return static_cast<size_t>((uint64_t{tag} * slots_.size()) >> 32);
  }
  size_t Next(size_t i) const { return i + 1 == slots_.size() ? 0 : i + 1; }

  std::vector<Slot> slots_;
};

// Runs fn(r, hash(r)) for r in [b, e), computing each block's hashes and
// prefetching their slots in `t` before the block runs, so the random
// slot accesses overlap instead of stalling one by one.
template <typename HashFn, typename Fn>
void ForEachHashedRow(const FlatHashTable& t, size_t b, size_t e,
                      const HashFn& hash, const Fn& fn) {
  constexpr size_t kBlock = 16;
  uint64_t h[kBlock];
  for (size_t lo = b; lo < e; lo += kBlock) {
    size_t hi = std::min(e, lo + kBlock);
    for (size_t r = lo; r < hi; ++r) {
      h[r - lo] = hash(r);
      t.Prefetch(h[r - lo]);
    }
    for (size_t r = lo; r < hi; ++r) fn(static_cast<uint32_t>(r), h[r - lo]);
  }
}

// Rows grouped by key — the EquiJoin build, the SemiJoin/Difference
// right side, Distinct and Aggr grouping. The FlatHashTable holds one
// entry per distinct key (its group's first row), so duplicate keys
// never lengthen a probe. Groups are numbered in first-appearance order;
// with `member_rows`, each group's rows are also kept, ascending, in one
// flat array. `normalize_keys` compares keys under the value-join
// normalization above. Read-only once built.
class RowGroups {
 public:
  RowGroups(std::vector<const Column*> key_cols, size_t rows,
            bool normalize_keys, bool member_rows)
      : key_cols_(std::move(key_cols)),
        normalize_keys_(normalize_keys),
        table_(rows) {
    std::vector<uint32_t> group_of(member_rows ? rows : 0);
    ForEachHashedRow(
        table_, 0, rows, [&](size_t r) { return Hash(key_cols_, r); },
        [&](uint32_t r, uint64_t h) {
          uint32_t g = Find(h, key_cols_, r);
          if (g == FlatHashTable::kEnd) {
            g = static_cast<uint32_t>(reps_.size());
            reps_.push_back(r);
            table_.Insert(g, h);
          }
          if (member_rows) group_of[r] = g;
        });
    if (!member_rows) return;
    // Counting sort by group: rows_[begin_[g], begin_[g + 1]) ascending.
    begin_.assign(reps_.size() + 1, 0);
    for (uint32_t g : group_of) ++begin_[g + 1];
    std::partial_sum(begin_.begin(), begin_.end(), begin_.begin());
    rows_.resize(rows);
    std::vector<uint32_t> next(begin_.begin(), begin_.end() - 1);
    for (uint32_t r = 0; r < rows; ++r) rows_[next[group_of[r]]++] = r;
  }

  size_t size() const { return reps_.size(); }
  // Each group's first row; ascending, since groups number by first
  // appearance.
  const std::vector<uint32_t>& reps() const { return reps_; }
  // A group's rows, ascending (requires `member_rows`).
  std::span<const uint32_t> rows(size_t g) const {
    return {rows_.data() + begin_[g], begin_[g + 1] - begin_[g]};
  }

  // For each probe row in [b, e), in order, calls fn(probe_row, group)
  // when some group's key equals the probe row's key.
  template <typename Fn>
  void Probe(const std::vector<const Column*>& probe_cols, size_t b,
             size_t e, const Fn& fn) const {
    ForEachHashedRow(
        table_, b, e, [&](size_t r) { return Hash(probe_cols, r); },
        [&](uint32_t pr, uint64_t h) {
          uint32_t g = Find(h, probe_cols, pr);
          if (g != FlatHashTable::kEnd) fn(pr, g);
        });
  }

 private:
  Value Key(const Column& c, size_t row) const {
    return normalize_keys_ ? NormalizeValueKey(c[row]) : c[row];
  }
  // Folds the key values' hashes with a multiply after each xor, which
  // spreads every input bit upward, so rows of small integers — (iter,
  // iter') pairs — do not collide.
  uint64_t Hash(const std::vector<const Column*>& cols, size_t row) const {
    uint64_t h = 1469598103934665603ull;
    for (const Column* c : cols) {
      h = (h ^ Key(*c, row).Hash()) * 0x9e3779b97f4a7c15ull;
    }
    return h;
  }
  // The group whose key (its first row's) equals cols' key at `row`.
  uint32_t Find(uint64_t h, const std::vector<const Column*>& cols,
                size_t row) const {
    return table_.Find(h, [&](uint32_t g) {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (!(Key(*key_cols_[i], reps_[g]) == Key(*cols[i], row))) {
          return false;
        }
      }
      return true;
    });
  }

  std::vector<const Column*> key_cols_;
  bool normalize_keys_;
  FlatHashTable table_;
  std::vector<uint32_t> reps_;
  std::vector<uint32_t> begin_;
  std::vector<uint32_t> rows_;
};

std::vector<const Column*> ColPtrs(const Table& t,
                                   const std::vector<ColId>& cols) {
  std::vector<const Column*> out;
  out.reserve(cols.size());
  for (ColId c : cols) out.push_back(&t.col(c));
  return out;
}

// Concatenates per-chunk row lists in chunk order — the order a serial
// scan would have produced them in.
std::vector<uint32_t> ConcatChunks(
    const std::vector<std::vector<uint32_t>>& parts) {
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  std::vector<uint32_t> rows;
  rows.reserve(total);
  for (const auto& p : parts) rows.insert(rows.end(), p.begin(), p.end());
  return rows;
}

// Shares the column pointer when the range covers the whole table,
// slices otherwise — pipeline stages touch only their morsel's rows.
ColumnPtr SliceOrShare(const Table& t, ColId c, size_t b, size_t e) {
  if (b == 0 && e == t.rows()) return t.col_ptr(c);
  const Column& src = t.col(c);
  return std::make_shared<const Column>(
      src.begin() + static_cast<ptrdiff_t>(b),
      src.begin() + static_cast<ptrdiff_t>(e));
}

// One morsel's result, parked until the sink's ordered merge. Slots are
// disjoint across morsel tasks, so no locking.
struct MorselOut {
  std::shared_ptr<Table> table;       // non-Step sinks
  std::vector<int64_t> step_iters;    // Step sinks (merged, sorted, deduped
  std::vector<NodeIdx> step_nodes;    // by the sink, like chunked EvalStep)
  int err_stage = -1;                 // first failing stage in this morsel
  Status err;
  size_t bytes = 0;                   // ledger charge for `table`
};

constexpr size_t kNoSlot = static_cast<size_t>(-1);

// -- ThetaJoin comparison domains -------------------------------------------

constexpr uint32_t KindBit(ValueKind k) {
  return uint32_t{1} << static_cast<unsigned>(k);
}
constexpr uint32_t kIntBit = KindBit(ValueKind::kInt);
constexpr uint32_t kBoolBit = KindBit(ValueKind::kBool);
constexpr uint32_t kUntypedBit = KindBit(ValueKind::kUntyped);
constexpr uint32_t kNumericBits = kIntBit | KindBit(ValueKind::kDouble);
constexpr uint32_t kStringBits = KindBit(ValueKind::kString) | kUntypedBit;

// The set of value kinds in keys[b, e).
uint32_t KindMask(const Column& keys, size_t b, size_t e) {
  uint32_t mask = 0;
  for (size_t i = b; i < e; ++i) mask |= KindBit(keys[i].kind);
  return mask;
}

// Casts numeric/untyped keys[b, e) to xs:double exactly as
// ValueOps::Compare does. False when an untyped value does not parse;
// `exact` turns false when an int does not survive the cast (|i| > 2^53).
bool CastNumeric(const Column& keys, size_t b, size_t e, const ValueOps& ops,
                 std::vector<double>* out, bool* exact) {
  constexpr int64_t kExactInt = int64_t{1} << 53;
  out->resize(e - b);
  for (size_t i = b; i < e; ++i) {
    const Value& v = keys[i];
    if (v.kind == ValueKind::kInt) {
      *exact = *exact && v.i >= -kExactInt && v.i <= kExactInt;
      (*out)[i - b] = static_cast<double>(v.i);
    } else if (v.kind == ValueKind::kDouble) {
      (*out)[i - b] = v.d;
    } else {
      Result<Value> d = ops.ToDouble(v);
      if (!d.ok()) return false;
      (*out)[i - b] = d.value().d;
    }
  }
  return true;
}

// Three-way comparison with ValueOps::Compare's numeric semantics: exact
// on int64; on doubles kUnordered when either side is NaN, under which
// every relation but ne fails (Holds).
constexpr int kUnordered = 2;
inline int Cmp3(int64_t a, int64_t b) {
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}
inline int Cmp3(double a, double b) {
  return a < b ? -1 : a > b ? 1 : a == b ? 0 : kUnordered;
}

// Whether relation f (kEq..kGe) holds for a Cmp3 result.
inline bool Holds(FunKind f, int c) {
  switch (f) {
    case FunKind::kEq:
      return c == 0;
    case FunKind::kNe:
      return c != 0;
    case FunKind::kLt:
      return c == -1;
    case FunKind::kLe:
      return c == -1 || c == 0;
    case FunKind::kGt:
      return c == 1;
    default:  // kGe; callers pass relations only
      return c == 0 || c == 1;
  }
}

// The one ThetaJoin nested loop: pairs (i, j), i in [b, e), j in [0, m),
// left-major with matches in right-row order. Matches are written
// branch-free (the candidate is always stored, the cursor advances on a
// match). Polls the governor on pair volume.
template <typename Match, typename Poll>
Status ThetaNestedLoop(size_t b, size_t e, size_t m, const Match& match,
                       const Poll& poll, std::vector<uint32_t>* l_rows,
                       std::vector<uint32_t>* r_rows) {
  std::vector<uint32_t> hits(m);
  size_t since_poll = 0;
  for (size_t i = b; i < e; ++i) {
    if (since_poll >= 0x10000) {
      since_poll = 0;
      EXRQUY_RETURN_IF_ERROR(poll());
    }
    since_poll += m;
    size_t cnt = 0;
    for (size_t j = 0; j < m; ++j) {
      hits[cnt] = static_cast<uint32_t>(j);
      cnt += static_cast<size_t>(match(i, j));
    }
    l_rows->insert(l_rows->end(), cnt, static_cast<uint32_t>(i));
    r_rows->insert(r_rows->end(), hits.begin(),
                   hits.begin() + static_cast<ptrdiff_t>(cnt));
  }
  return Status::Ok();
}

// The nested loop over typed keys: lk[0, e - b) stands for probe rows
// [b, e), rk for the m build rows.
template <typename K, typename Poll>
Status ScanTyped(FunKind f, const K* lk, size_t b, size_t e, const K* rk,
                 size_t m, const Poll& poll, std::vector<uint32_t>* l_rows,
                 std::vector<uint32_t>* r_rows) {
  // One instantiation per relation keeps the relation out of the loop.
  auto scan = [&](auto rel) {
    return ThetaNestedLoop(
        b, e, m,
        [&](size_t i, size_t j) {
          return Holds(decltype(rel)::value, Cmp3(lk[i - b], rk[j]));
        },
        poll, l_rows, r_rows);
  };
  switch (f) {
    case FunKind::kEq:
      return scan(std::integral_constant<FunKind, FunKind::kEq>{});
    case FunKind::kNe:
      return scan(std::integral_constant<FunKind, FunKind::kNe>{});
    case FunKind::kLt:
      return scan(std::integral_constant<FunKind, FunKind::kLt>{});
    case FunKind::kLe:
      return scan(std::integral_constant<FunKind, FunKind::kLe>{});
    case FunKind::kGt:
      return scan(std::integral_constant<FunKind, FunKind::kGt>{});
    default:  // kGe; callers pass relations only
      return scan(std::integral_constant<FunKind, FunKind::kGe>{});
  }
}

// Each group's extreme key (its max when `want_max`, else its min) over
// keys[row] of the group's rows, skipping NaN, which satisfies no order
// relation; has[g] is 0 when every key of group g is NaN.
template <typename K>
void GroupExtremes(const RowGroups& groups, const K* keys, bool want_max,
                   std::vector<K>* ext, std::vector<uint8_t>* has) {
  ext->assign(groups.size(), K{});
  has->assign(groups.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (uint32_t row : groups.rows(g)) {
      K k = keys[row];
      if (k != k) continue;  // NaN
      if (!(*has)[g] || (want_max ? k > (*ext)[g] : k < (*ext)[g])) {
        (*ext)[g] = k;
        (*has)[g] = 1;
      }
    }
  }
}

// The counting theta join's band path, for f in lt/le/gt/ge over one
// total order (keys lk of the left rows, rk of the right rows). Some key
// a of left group x and b of right group y satisfy `a f b` exactly when
// the groups' extremes do: min(x) f max(y) for lt/le, max(x) f min(y)
// for gt/ge. So each side reduces to one extreme per group, the
// partner side's extremes are sorted once, and each group's count is one
// binary search: O((|L| + |R|) log |R|), no pair is ever formed. Writes
// each group's count to (*counts)[g]; polls the governor on group volume.
template <typename K, typename Poll>
Status BandCounts(FunKind f, const K* lk, const K* rk, const RowGroups& lg,
                  const RowGroups& rg, bool group_left, const Poll& poll,
                  std::vector<int64_t>* counts) {
  const bool left_smaller = f == FunKind::kLt || f == FunKind::kLe;
  std::vector<K> lext;
  std::vector<K> rext;
  std::vector<uint8_t> lhas;
  std::vector<uint8_t> rhas;
  GroupExtremes(lg, lk, /*want_max=*/!left_smaller, &lext, &lhas);
  GroupExtremes(rg, rk, /*want_max=*/left_smaller, &rext, &rhas);
  const std::vector<K>& gext = group_left ? lext : rext;
  const std::vector<uint8_t>& ghas = group_left ? lhas : rhas;
  const std::vector<K>& pext = group_left ? rext : lext;
  const std::vector<uint8_t>& phas = group_left ? rhas : lhas;
  std::vector<K> sorted;
  sorted.reserve(pext.size());
  for (size_t p = 0; p < pext.size(); ++p) {
    if (phas[p]) sorted.push_back(pext[p]);
  }
  std::sort(sorted.begin(), sorted.end());
  // Count the partner extremes y with `y rel x`.
  const FunKind rel = group_left ? MirrorRelation(f) : f;
  for (size_t g = 0; g < gext.size(); ++g) {
    if ((g & 0xFFFF) == 0xFFFF) EXRQUY_RETURN_IF_ERROR(poll());
    if (!ghas[g]) continue;
    auto lo = std::lower_bound(sorted.begin(), sorted.end(), gext[g]);
    auto hi = std::upper_bound(lo, sorted.end(), gext[g]);
    switch (rel) {
      case FunKind::kLt:
        (*counts)[g] = lo - sorted.begin();
        break;
      case FunKind::kLe:
        (*counts)[g] = hi - sorted.begin();
        break;
      case FunKind::kGt:
        (*counts)[g] = sorted.end() - hi;
        break;
      default:  // kGe
        (*counts)[g] = sorted.end() - lo;
        break;
    }
  }
  return Status::Ok();
}

}  // namespace

// A ThetaJoin's build (right) side, shared by every probe range. Its keys
// in each comparison domain are prepared once, on first use — an untyped
// build side may serve the numeric or the string domain, and only the
// probe ranges decide which — under std::call_once, since morsel tasks
// probe concurrently.
struct Evaluator::ThetaBuild {
  enum Domain { kInt, kDouble, kNone };

  ThetaBuild(const Table& t, ColId key, const ValueOps& ops)
      : table(t), keys(t.col(key)), kinds(KindMask(keys, 0, keys.size())),
        ops_(ops) {}

  // Casts probe keys lk[b, e) into the domain they share with every
  // build key: into *li with the build keys at *ri (kInt), or into *ld
  // with the build keys at *rd (kDouble); kNone when there is none.
  Domain Probe(const Column& lk, size_t b, size_t e, std::vector<int64_t>* li,
               const int64_t** ri, std::vector<double>* ld,
               const double** rd) const {
    const uint32_t lkinds = KindMask(lk, b, e);
    const uint32_t both = lkinds | kinds;
    if ((both & ~(kNumericBits | kUntypedBit)) == 0 &&
        (lkinds & kinds & kUntypedBit) == 0) {
      if (lkinds == kIntBit && kinds == kIntBit) {
        for (size_t i = b; i < e; ++i) li->push_back(lk[i].i);
        *ri = IntKeys().data();
        return kInt;
      }
      // Int-int pairs compare exactly in Compare, so the double domain
      // holds them only when both ints survive the cast.
      std::call_once(dbl_once_, [&] {
        dbl_ok_ = CastNumeric(keys, 0, keys.size(), ops_, &dbl_, &exact_);
      });
      bool exact = true;
      if (!dbl_ok_ || !CastNumeric(lk, b, e, ops_, ld, &exact) ||
          ((lkinds & kinds & kIntBit) != 0 && !(exact && exact_))) {
        return kNone;
      }
      *rd = dbl_.data();
      return kDouble;
    }
    if ((both & ~kStringBits) == 0) {
      // A probe string ranks 2p when it equals build string p and 2p - 1
      // when it sorts between build strings p - 1 and p.
      *ri = IntKeys().data();
      for (size_t i = b; i < e; ++i) {
        std::string_view sv = ops_.strings().Get(lk[i].str);
        auto it = std::lower_bound(strs_.begin(), strs_.end(), sv);
        int64_t p = 2 * static_cast<int64_t>(it - strs_.begin());
        li->push_back(it != strs_.end() && *it == sv ? p : p - 1);
      }
      return kInt;
    }
    if (lkinds == kBoolBit && kinds == kBoolBit) {
      for (size_t i = b; i < e; ++i) {
        li->push_back(static_cast<int64_t>(lk[i].b));
      }
      *ri = IntKeys().data();
      return kInt;
    }
    return kNone;
  }

  const Table& table;
  const Column& keys;
  const uint32_t kinds;  // KindBit set over the build keys

 private:
  // The int-coded build keys: the ints (all-int keys), 0/1 (all-bool)
  // or 2 × the rank among the distinct build strings (all string-class).
  const std::vector<int64_t>& IntKeys() const {
    std::call_once(ints_once_, [&] {
      ints_.reserve(keys.size());
      if (kinds == kIntBit || kinds == kBoolBit) {
        for (const Value& v : keys) {
          ints_.push_back(kinds == kIntBit ? v.i : static_cast<int64_t>(v.b));
        }
        return;
      }
      std::vector<std::string_view> all;
      all.reserve(keys.size());
      for (const Value& v : keys) all.push_back(ops_.strings().Get(v.str));
      strs_ = all;
      std::sort(strs_.begin(), strs_.end());
      strs_.erase(std::unique(strs_.begin(), strs_.end()), strs_.end());
      for (std::string_view sv : all) {
        auto it = std::lower_bound(strs_.begin(), strs_.end(), sv);
        ints_.push_back(2 * static_cast<int64_t>(it - strs_.begin()));
      }
    });
    return ints_;
  }

  const ValueOps& ops_;
  mutable std::once_flag ints_once_;
  mutable std::vector<int64_t> ints_;
  mutable std::vector<std::string_view> strs_;  // distinct, ascending
  mutable std::once_flag dbl_once_;
  mutable bool dbl_ok_ = false;  // every untyped build key cast
  mutable bool exact_ = true;    // every int build key survives the cast
  mutable std::vector<double> dbl_;
};

Status Evaluator::ThetaRange(const Op& op, const Column& lk, size_t b,
                             size_t e, const ThetaBuild& build,
                             std::vector<uint32_t>* l_rows,
                             std::vector<uint32_t>* r_rows,
                             uint64_t* fallback_pairs) {
  // Every pair (i, j) is decided by ValueOps::Compare's general-
  // comparison rules. Instead of calling it per pair, each probe key of
  // [b, e) is cast once into the comparison domain it shares with every
  // build key, and the scan compares plain int64 or double keys:
  //   numeric — int/double, untyped cast to xs:double against numbers;
  //             exact int64 when both sides hold only ints, else double
  //             (ints beyond 2^53 meeting ints there have no domain);
  //   string  — string/untyped on both sides, compared by rank;
  //   bool    — bool on both sides.
  // A range without one domain — one side mixing untyped and numeric
  // keys against untyped ones, a node, incomparable kinds, a failing
  // cast — keeps the per-pair Compare: same pairs, same order, same
  // first error. That is data-dependent, never a configuration choice.
  const size_t m = build.keys.size();
  if (b == e || m == 0) return Status::Ok();
  auto poll = [this] { return PollGovernor(); };
  std::vector<int64_t> li;
  std::vector<double> ld;
  const int64_t* ri = nullptr;
  const double* rd = nullptr;
  switch (IsRelation(op.fun) ? build.Probe(lk, b, e, &li, &ri, &ld, &rd)
                             : ThetaBuild::kNone) {
    case ThetaBuild::kInt:
      return ScanTyped(op.fun, li.data(), b, e, ri, m, poll, l_rows, r_rows);
    case ThetaBuild::kDouble:
      return ScanTyped(op.fun, ld.data(), b, e, rd, m, poll, l_rows, r_rows);
    case ThetaBuild::kNone:
      break;
  }
  *fallback_pairs += static_cast<uint64_t>(e - b) * m;
  Status err;  // the first failing pair's; later pairs are skipped
  Status st = ThetaNestedLoop(
      b, e, m,
      [&](size_t i, size_t j) {
        if (!err.ok()) return false;
        Result<Value> v = ops_.Compare(op.fun, lk[i], build.keys[j]);
        if (!v.ok()) err = v.status();
        return v.ok() && v.value().b;
      },
      poll, l_rows, r_rows);
  return err.ok() ? st : err;
}

// Per-Eval scheduler state. Operators are addressed by their dense slot in
// the topological order; `pending` counts unfinished children (plus the
// constructor-chain edge), `consumers` counts unfinished parents (plus one
// for the root, whose table outlives the evaluation).
struct Evaluator::Sched {
  explicit Sched(size_t n)
      : ops(n, nullptr),
        memo(n),
        pending(std::make_unique<std::atomic<uint32_t>[]>(n)),
        consumers(std::make_unique<std::atomic<uint32_t>[]>(n)),
        parents(n),
        ctor_next(n, kNoSlot),
        ready_at(n),
        remaining(n) {}

  std::vector<OpId> ids;                  // slot -> op id (ascending)
  std::unordered_map<OpId, size_t> slot;  // op id -> slot
  std::vector<const Op*> ops;
  std::vector<TablePtr> memo;
  std::unique_ptr<std::atomic<uint32_t>[]> pending;
  std::unique_ptr<std::atomic<uint32_t>[]> consumers;
  std::vector<std::vector<size_t>> parents;  // per edge (duplicates kept)
  std::vector<size_t> ctor_next;  // next constructor slot in the chain
  std::vector<Clock::time_point> ready_at;
  bool release = false;
  bool track = false;

  // First error by op id — the operator the serial engine would have
  // failed on first (among those that ran before cancellation).
  std::atomic<bool> cancelled{false};
  std::mutex err_mu;
  OpId err_op = kNoOp;
  Status err;

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining;
};

Evaluator::Evaluator(const Dag& dag, EvalContext* ctx)
    : dag_(dag),
      ctx_(ctx),
      ops_(ctx->strings, ctx->store),
      chunk_rows_(std::max<size_t>(1, ctx->chunk_rows)),
      morsel_rows_(ResolveMorselRows(ctx->morsel_rows, chunk_rows_)),
      inline_rows_(ctx->inline_rows) {}

// ---------------------------------------------------------------------------
// Governor polls. All cooperative: kernels are never interrupted, they
// observe the trip at the next operator dispatch or chunk boundary, so
// the abort latency is bounded by one chunk's work.

void Evaluator::Trip(Status st) {
  std::lock_guard<std::mutex> lock(trip_mu_);
  if (trip_status_.ok()) trip_status_ = std::move(st);
  tripped_.store(true, std::memory_order_release);
}

Status Evaluator::TripStatus() {
  std::lock_guard<std::mutex> lock(trip_mu_);
  EXRQUY_DCHECK(!trip_status_.ok());
  return trip_status_;
}

Status Evaluator::PollGovernor() {
  if (!tripped_.load(std::memory_order_acquire)) {
    if (ctx_->cancel != nullptr && ctx_->cancel->cancelled()) {
      Trip(Cancelled("query cancelled by caller"));
    } else if (ctx_->has_deadline && Clock::now() >= ctx_->deadline) {
      Trip(DeadlineExceeded("query deadline exceeded"));
    } else if (ctx_->budget != nullptr && ctx_->budget->exhausted()) {
      Trip(ResourceExhausted(
          "query memory budget exhausted (limit " +
          std::to_string(ctx_->budget->limit()) + " bytes)"));
    } else {
      return Status::Ok();
    }
  }
  return TripStatus();
}

Status Evaluator::PollOp() {
  if (ctx_->faults != nullptr && ctx_->faults->CancelAtOp()) {
    Trip(Cancelled("fault injection: cancel at operator dispatch " +
                   std::to_string(ctx_->faults->plan().cancel_at_op)));
  }
  return PollGovernor();
}

Status Evaluator::PollChunk() {
  if (ctx_->faults != nullptr && ctx_->faults->DeadlineAtChunk()) {
    Trip(DeadlineExceeded(
        "fault injection: deadline at chunk boundary " +
        std::to_string(ctx_->faults->plan().deadline_at_chunk)));
  }
  return PollGovernor();
}

Result<TablePtr> Evaluator::Eval(OpId root) {
  // A malformed plan (hand-built, or produced by a buggy rewrite that
  // slipped past the pipeline's own verification) must fail as a Status,
  // not as out-of-bounds column accesses mid-evaluation. Structure and
  // schema checks only — property auditing is the optimizer's concern.
  VerifyOptions guard;
  guard.check_properties = false;
  EXRQUY_RETURN_IF_ERROR(VerifyPlan(dag_, root, guard));

  // A pre-cancelled token, an already-expired deadline, or a budget
  // exhausted by pre-evaluation work fails before any operator runs.
  EXRQUY_RETURN_IF_ERROR(PollGovernor());

  std::vector<OpId> order = dag_.ReachableFrom(root);
  if (ctx_->pipelined_execution) {
    // Plan the fusable chains, then refuse to run any plan the audit
    // cannot independently re-derive — a planner bug must fail as a
    // Status, never as a wrong (or torn) result.
    mplan_ = PlanPipelines(dag_, order, root);
    EXRQUY_RETURN_IF_ERROR(AuditMorselPlan(dag_, order, root, mplan_));
    pipelined_ = !mplan_.pipelines.empty();
  }
  size_t threads = ResolveThreads(ctx_->num_threads);
  if (ctx_->profile != nullptr) {
    ctx_->profile->SetExecution(threads, ctx_->release_intermediates);
  }
  Result<TablePtr> result = threads <= 1 ? EvalSerial(order, root)
                                         : EvalParallel(order, root, threads);
  if (result.ok()) {
    // A trip latched during the final operator's chunks, or a budget
    // crossing charged by the last kernel, still fails the query: the
    // root table may be complete, but the contract (clean Status once a
    // governor condition fires) takes precedence. The wall-clock
    // deadline alone is exempt — a query that finished is not re-failed
    // for ending close to its deadline.
    if (tripped_.load(std::memory_order_acquire)) {
      result = TripStatus();
    } else if (ctx_->budget != nullptr && ctx_->budget->exhausted()) {
      result = ResourceExhausted(
          "query memory budget exhausted (limit " +
          std::to_string(ctx_->budget->limit()) + " bytes)");
    }
  }
  if (ctx_->profile != nullptr) {
    ctx_->profile->SetMemory(peak_live_bytes_, live_bytes_, released_tables_);
  }
  return result;
}

void Evaluator::TrackTable(const Table& t) {
  for (ColId c : t.schema()) {
    const Column* p = t.col_ptr(c).get();
    if (++live_cols_[p] == 1) {
      size_t bytes = Table::ColumnBytes(*p);
      live_bytes_ += bytes;
      if (ctx_->budget != nullptr) ctx_->budget->Charge(bytes);
    }
  }
  peak_live_bytes_ =
      std::max(peak_live_bytes_, live_bytes_ + morsel_live_bytes_);
}

void Evaluator::UntrackTable(const Table& t) {
  for (ColId c : t.schema()) {
    const Column* p = t.col_ptr(c).get();
    auto it = live_cols_.find(p);
    if (it != live_cols_.end() && --it->second == 0) {
      size_t bytes = Table::ColumnBytes(*p);
      live_bytes_ -= bytes;
      if (ctx_->budget != nullptr) ctx_->budget->Release(bytes);
      live_cols_.erase(it);
    }
  }
}

// Morsel parts awaiting their pipeline's merge are live memory like any
// memoized table: they count against the budget (the charge count is a
// pure function of the data, so fail_alloc sweeps stay replayable) and
// into the peak alongside the memo tracker's live_bytes_.
void Evaluator::ChargeMorsel(size_t bytes) {
  if (bytes == 0) return;
  if (ctx_->budget != nullptr) ctx_->budget->Charge(bytes);
  std::lock_guard<std::mutex> lock(profile_mu_);
  morsel_live_bytes_ += bytes;
  peak_live_bytes_ =
      std::max(peak_live_bytes_, live_bytes_ + morsel_live_bytes_);
}

void Evaluator::ReleaseMorsel(size_t bytes) {
  if (bytes == 0) return;
  if (ctx_->budget != nullptr) ctx_->budget->Release(bytes);
  std::lock_guard<std::mutex> lock(profile_mu_);
  morsel_live_bytes_ -= bytes;
}

Result<TablePtr> Evaluator::EvalSerial(const std::vector<OpId>& order,
                                       OpId root) {
  // Bottom-up over the reachable sub-DAG: each operator evaluated once,
  // shared sub-plans reused (full materialization, MonetDB style).
  std::unordered_map<OpId, TablePtr> memo;
  std::unordered_map<OpId, uint32_t> consumers;
  const bool release = ctx_->release_intermediates;
  if (release) consumers = ConsumerCounts(dag_, root);

  // Releases `c`'s table once its last consumer has run. In-pipe edges
  // have no memo entry (interior stages never materialize) — their
  // counter still reaches zero here, with nothing to free.
  auto release_child = [&](OpId c) {
    auto it = consumers.find(c);
    if (it != consumers.end() && --it->second == 0) {
      auto mit = memo.find(c);
      if (mit != memo.end()) {
        UntrackTable(*mit->second);
        memo.erase(mit);
        ++released_tables_;
      }
    }
  };

  for (OpId id : order) {
    // Interior pipeline stages run fused inside their sink's unit; they
    // are skipped here (and in the parallel scheduler) so the PollOp
    // dispatch count is the number of scheduled units in both modes.
    if (pipelined_ && mplan_.interior(id)) continue;
    EXRQUY_RETURN_IF_ERROR(PollOp());
    const Op& op = dag_.op(id);

    if (pipelined_ && mplan_.sink(id)) {
      uint32_t pidx = mplan_.pipeline_of.at(id);
      const Pipeline& pl = mplan_.pipelines[pidx];
      auto input = [&](OpId c) -> const TablePtr& { return memo.at(c); };
      const bool prof = ctx_->profile != nullptr;
      std::vector<Profile::OpMetrics> sm;
      Profile::PipelineMetrics pm;
      Clock::time_point start = Clock::now();
      Result<TablePtr> r =
          EvalPipeline(pidx, input, prof ? &sm : nullptr, prof ? &pm : nullptr);
      double ms = MsSince(start);
      if (r.ok() && tripped_.load(std::memory_order_acquire)) {
        r = TripStatus();
      }
      if (!r.ok()) return r.status();
      TablePtr t = std::move(r).value();
      if (prof) {
        for (Profile::OpMetrics& m : sm) {
          ctx_->profile->Record(dag_.op(m.op), std::move(m));
        }
        pm.ms = ms;
        ctx_->profile->RecordPipeline(pm);
      }
      TrackTable(*t);
      memo[id] = std::move(t);
      if (release) {
        for (const PipelineStage& st : pl.stages) {
          for (OpId c : dag_.op(st.op).children) release_child(c);
        }
      }
      continue;
    }

    std::vector<TablePtr> in;
    in.reserve(op.children.size());
    size_t in_rows = 0;
    for (OpId c : op.children) {
      in.push_back(memo.at(c));
      in_rows += in.back()->rows();
    }
    KernelNotes notes;
    tls_notes = &notes;
    Clock::time_point start = Clock::now();
    Result<TablePtr> r = EvalOp(op, in);
    double ms = MsSince(start);
    tls_notes = nullptr;
    if (r.ok() && tripped_.load(std::memory_order_acquire)) {
      // A governor trip mid-kernel makes chunk tasks skip their slices;
      // the assembled table would be torn, so it must not be memoized.
      r = TripStatus();
    }
    if (!r.ok()) return r.status();
    TablePtr t = std::move(r).value();
    if (ctx_->profile != nullptr) {
      Profile::OpMetrics m;
      m.op = id;
      m.ms = ms;
      m.in_rows = in_rows;
      m.out_rows = t->rows();
      m.chunks = notes.chunks;
      m.theta_fallback_pairs = notes.theta_fallback_pairs;
      ctx_->profile->Record(op, std::move(m));
    }
    TrackTable(*t);
    memo[id] = std::move(t);
    if (release) {
      in.clear();  // drop the extra references before releasing
      for (OpId c : op.children) release_child(c);
    }
  }
  return memo.at(root);
}

Result<TablePtr> Evaluator::EvalParallel(const std::vector<OpId>& order,
                                         OpId root, size_t threads) {
  const size_t n = order.size();
  Sched s(n);
  s.ids = order;
  s.slot.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) s.slot.emplace(order[i], i);
  for (size_t i = 0; i < n; ++i) {
    const Op& op = dag_.op(order[i]);
    s.ops[i] = &op;
    s.pending[i].store(static_cast<uint32_t>(op.children.size()),
                       std::memory_order_relaxed);
    for (OpId c : op.children) {
      size_t cs = s.slot.at(c);
      s.parents[cs].push_back(i);
      s.consumers[cs].fetch_add(1, std::memory_order_relaxed);
    }
  }
  s.consumers[s.slot.at(root)].fetch_add(1, std::memory_order_relaxed);

  // Chain node constructors in ascending op-id order: each waits for the
  // previous one, so NodeStore allocation order matches serial execution.
  size_t prev_ctor = kNoSlot;
  for (size_t i = 0; i < n; ++i) {
    if (!IsNodeConstructor(s.ops[i]->kind)) continue;
    if (prev_ctor != kNoSlot) {
      s.ctor_next[prev_ctor] = i;
      s.pending[i].fetch_add(1, std::memory_order_relaxed);
    }
    prev_ctor = i;
  }
  s.release = ctx_->release_intermediates;
  s.track = ctx_->profile != nullptr;

  // Snapshot the initially-ready set before any task runs: once workers
  // start, they decrement pending counts concurrently, and re-reading
  // them here could observe a drop to zero and submit an op twice.
  std::vector<size_t> ready;
  for (size_t i = 0; i < n; ++i) {
    if (s.pending[i].load(std::memory_order_relaxed) == 0) ready.push_back(i);
  }
  pool_ = std::make_unique<TaskPool>(threads);
  Sched* sp = &s;
  Clock::time_point t0 = Clock::now();
  // Inline-eligible ready units run on this thread after the pooled ones
  // are queued; with a tiny query, nothing is ever queued and the lazy
  // pool never spawns a worker.
  std::vector<size_t> run_here;
  for (size_t i : ready) {
    s.ready_at[i] = t0;
    if (ShouldInline(sp, i)) {
      run_here.push_back(i);
    } else {
      pool_->Submit([this, sp, i] { RunTask(sp, i, /*queued=*/true); });
    }
  }
  for (size_t i : run_here) RunTask(sp, i, /*queued=*/false);
  {
    std::unique_lock<std::mutex> lock(s.done_mu);
    s.done_cv.wait(lock, [&] { return s.remaining == 0; });
  }
  pool_.reset();  // joins the workers; nothing touches `s` afterwards

  // A governor trip wins over concurrent operator errors: the trip is
  // reproducible at every thread count (its counters advance the same
  // number of times), while which kernels got far enough to fail is not.
  if (tripped_.load(std::memory_order_acquire)) return TripStatus();
  if (s.err_op != kNoOp) return s.err;
  return s.memo[s.slot.at(root)];
}

void Evaluator::RunTask(Sched* s, size_t i, bool queued) {
  // Drain loop: RunOne collects units its completion made ready and
  // inline-eligible; running them here (instead of recursing out of
  // DecrementPending) bounds the stack on long inline chains. Only the
  // unit that actually sat in the pool queue charges queue wait.
  std::vector<size_t> q;
  RunOne(s, i, queued, &q);
  while (!q.empty()) {
    size_t next = q.back();
    q.pop_back();
    RunOne(s, next, /*queued=*/false, &q);
  }
}

void Evaluator::RunOne(Sched* s, size_t i, bool queued,
                       std::vector<size_t>* q) {
  // Interior pipeline stages never run as units — their work happens
  // fused inside the sink's morsel loop; completing them here only
  // propagates readiness (no poll, no release, no memo entry).
  if (pipelined_ && mplan_.interior(s->ids[i])) {
    FinishTask(s, i, q);
    return;
  }
  const Op& op = *s->ops[i];
  if (s->cancelled.load(std::memory_order_acquire)) {
    FinishTask(s, i, q);
    return;
  }
  if (Status g = PollOp(); !g.ok()) {
    // Drain like an operator error: later tasks early-out above, pending
    // counts still reach zero, intermediates still release. The final
    // status comes from the trip latch, not from s->err.
    s->cancelled.store(true, std::memory_order_release);
    FinishTask(s, i, q);
    return;
  }
  if (pipelined_ && mplan_.sink(s->ids[i])) {
    RunPipelineUnit(s, i, queued, q);
    return;
  }
  std::vector<TablePtr> in;
  in.reserve(op.children.size());
  size_t in_rows = 0;
  for (OpId c : op.children) {
    const TablePtr& t = s->memo[s->slot.at(c)];
    in.push_back(t);
    in_rows += t->rows();
  }
  double queue_ms = queued ? MsSince(s->ready_at[i]) : 0;
  KernelNotes notes;
  tls_notes = &notes;
  // Waiting for the store hold — a constructor's exclusive hold waits
  // out every running reader, a reader waits out a running constructor —
  // is booked as blocked time, never as kernel time.
  Clock::time_point wait_start = Clock::now();
  std::unique_lock<std::shared_mutex> excl(store_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> shared(store_mu_, std::defer_lock);
  if (IsNodeConstructor(op.kind)) {
    excl.lock();
  } else {
    shared.lock();
  }
  Clock::time_point start = Clock::now();
  double blocked_ms =
      std::chrono::duration<double, std::milli>(start - wait_start).count();
  Result<TablePtr> r = EvalOp(op, in);
  double ms = MsSince(start);
  if (excl.owns_lock()) excl.unlock();
  if (shared.owns_lock()) shared.unlock();
  tls_notes = nullptr;
  in.clear();

  if (r.ok() && tripped_.load(std::memory_order_acquire)) {
    // Torn table (chunks skipped after a trip) — do not memoize it.
    r = TripStatus();
  }
  if (!r.ok()) {
    {
      std::lock_guard<std::mutex> lock(s->err_mu);
      if (s->err_op == kNoOp || s->ids[i] < s->err_op) {
        s->err_op = s->ids[i];
        s->err = r.status();
      }
    }
    s->cancelled.store(true, std::memory_order_release);
  } else {
    TablePtr t = std::move(r).value();
    {
      std::lock_guard<std::mutex> lock(profile_mu_);
      if (s->track) {
        Profile::OpMetrics m;
        m.op = s->ids[i];
        m.ms = ms;
        m.blocked_ms = blocked_ms;
        m.queue_ms = queue_ms;
        m.in_rows = in_rows;
        m.out_rows = t->rows();
        m.chunks = notes.chunks;
        m.theta_fallback_pairs = notes.theta_fallback_pairs;
        ctx_->profile->Record(op, std::move(m));
      }
      TrackTable(*t);
    }
    s->memo[i] = std::move(t);  // published by the pending decrements below
  }
  FinishTask(s, i, q);
}

void Evaluator::RunPipelineUnit(Sched* s, size_t i, bool queued,
                                std::vector<size_t>* q) {
  uint32_t pidx = mplan_.pipeline_of.at(s->ids[i]);
  double queue_ms = queued ? MsSince(s->ready_at[i]) : 0;
  auto input = [s](OpId c) -> const TablePtr& {
    return s->memo[s->slot.at(c)];
  };
  const bool prof = s->track;
  std::vector<Profile::OpMetrics> sm;
  Profile::PipelineMetrics pm;
  // No fused stage constructs nodes, so the whole pipeline (and the
  // morsel tasks it fans out, which its ParallelFor outlives) runs under
  // a shared store hold, like any reading operator; waiting for it is
  // blocked time, as in RunOne.
  Clock::time_point wait_start = Clock::now();
  std::shared_lock<std::shared_mutex> hold(store_mu_);
  Clock::time_point start = Clock::now();
  double blocked_ms =
      std::chrono::duration<double, std::milli>(start - wait_start).count();
  Result<TablePtr> r = EvalPipeline(pidx, input, prof ? &sm : nullptr,
                                    prof ? &pm : nullptr);
  double ms = MsSince(start);
  hold.unlock();

  if (r.ok() && tripped_.load(std::memory_order_acquire)) {
    r = TripStatus();
  }
  if (!r.ok()) {
    // Errors resolve across units by unit id — for a pipeline, its sink's
    // op id, the id the serial unit order dispatches it at. EvalPipeline
    // already picked the serial-first error within the pipeline.
    {
      std::lock_guard<std::mutex> lock(s->err_mu);
      if (s->err_op == kNoOp || s->ids[i] < s->err_op) {
        s->err_op = s->ids[i];
        s->err = r.status();
      }
    }
    s->cancelled.store(true, std::memory_order_release);
  } else {
    TablePtr t = std::move(r).value();
    {
      std::lock_guard<std::mutex> lock(profile_mu_);
      if (prof) {
        for (Profile::OpMetrics& m : sm) {
          ctx_->profile->Record(dag_.op(m.op), std::move(m));
        }
        pm.ms = ms;
        pm.blocked_ms = blocked_ms;
        pm.queue_ms = queue_ms;
        ctx_->profile->RecordPipeline(pm);
      }
      TrackTable(*t);
    }
    s->memo[i] = std::move(t);
  }
  FinishTask(s, i, q);
}

void Evaluator::FinishTask(Sched* s, size_t i, std::vector<size_t>* q) {
  OpId id = s->ids[i];
  const bool interior = pipelined_ && mplan_.interior(id);
  if (s->release && !interior) {
    // A sink releases every stage's inputs — the head's external tables
    // were consumed by its morsel loop, not by any standalone unit.
    // Interior completions must not release anything: their edges are
    // accounted at the sink, after the pipeline actually read them.
    if (pipelined_ && mplan_.sink(id)) {
      const Pipeline& pl = mplan_.pipelines[mplan_.pipeline_of.at(id)];
      for (const PipelineStage& st : pl.stages) {
        ReleaseChildren(s, dag_.op(st.op));
      }
    } else {
      ReleaseChildren(s, *s->ops[i]);
    }
  }
  if (s->ctor_next[i] != kNoSlot) DecrementPending(s, s->ctor_next[i], q);
  for (size_t p : s->parents[i]) DecrementPending(s, p, q);
  {
    std::lock_guard<std::mutex> lock(s->done_mu);
    if (--s->remaining == 0) s->done_cv.notify_all();
  }
}

void Evaluator::ReleaseChildren(Sched* s, const Op& op) {
  for (OpId c : op.children) {
    size_t cs = s->slot.at(c);
    if (s->consumers[cs].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      TablePtr dead = std::move(s->memo[cs]);
      // In-pipe edges (and drained-before-running producers) have no
      // memoized table; their counter still hits zero with nothing to
      // free.
      if (dead != nullptr) {
        std::lock_guard<std::mutex> lock(profile_mu_);
        UntrackTable(*dead);
        ++released_tables_;
      }
    }
  }
}

void Evaluator::DecrementPending(Sched* s, size_t i, std::vector<size_t>* q) {
  if (s->pending[i].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    s->ready_at[i] = Clock::now();
    if (ShouldInline(s, i)) {
      q->push_back(i);
      return;
    }
    pool_->Submit([this, s, i] { RunTask(s, i, /*queued=*/true); });
  }
}

bool Evaluator::ShouldInline(Sched* s, size_t i) {
  OpId id = s->ids[i];
  // Interior completions are pure bookkeeping — never worth a task.
  if (pipelined_ && mplan_.interior(id)) return true;
  if (inline_rows_ == 0) return false;
  size_t rows = 0;
  auto add = [&](const Op& op) {
    for (OpId c : op.children) {
      const TablePtr& t = s->memo[s->slot.at(c)];
      if (t != nullptr) rows += t->rows();
    }
  };
  if (pipelined_ && mplan_.sink(id)) {
    const Pipeline& pl = mplan_.pipelines[mplan_.pipeline_of.at(id)];
    for (const PipelineStage& st : pl.stages) add(dag_.op(st.op));
  } else {
    add(*s->ops[i]);
  }
  return rows <= inline_rows_;
}

// ---------------------------------------------------------------------------
// Pipelined execution: one scheduled unit runs a whole fused chain. The
// head's materialized input rows are split into morsels — boundaries a
// pure function of the source size and morsel_rows_, never the thread
// count — and each morsel flows through every stage without
// materializing interior tables. The sink concatenates morsel results
// in morsel order (Step re-sorts/dedups, # numbers the merged stream),
// which is exactly what the standalone chunked kernels produce, so the
// fused table is byte-identical to operator-at-a-time evaluation.

size_t Evaluator::NumMorsels(size_t n) const {
  return n == 0 ? 1 : (n + morsel_rows_ - 1) / morsel_rows_;
}

Result<TablePtr> Evaluator::EvalPipeline(
    uint32_t pidx, const std::function<const TablePtr&(OpId)>& input,
    std::vector<Profile::OpMetrics>* stage_metrics,
    Profile::PipelineMetrics* pm) {
  const Pipeline& pl = mplan_.pipelines[pidx];
  const size_t nstages = pl.stages.size();

  // Resolve stage operators and their materialized (non-pipe) inputs.
  std::vector<const Op*> sops(nstages);
  std::vector<std::vector<TablePtr>> ext(nstages);
  for (size_t si = 0; si < nstages; ++si) {
    const PipelineStage& st = pl.stages[si];
    sops[si] = &dag_.op(st.op);
    const Op& op = *sops[si];
    ext[si].resize(op.children.size());
    for (size_t ci = 0; ci < op.children.size(); ++ci) {
      if (si > 0 && static_cast<int>(ci) == st.pipe_child) continue;
      ext[si][ci] = input(op.children[ci]);
    }
  }

  // The head defines the morsel domain.
  const Op& hop = *sops[0];
  const Table* stream = nullptr;  // single-stream heads (and the probe side)
  const Table* lT = nullptr;      // union / equi-join heads
  const Table* rT = nullptr;
  std::unique_ptr<RowGroups> jindex;  // equi-join build, done once up front
  // Blocking build work per stage, charged to that stage's wall time.
  std::vector<double> setup_ms(nstages, 0);
  bool jbuild_right = false;
  ColId jprobe_col = kNoCol;
  size_t total = 0;
  switch (hop.kind) {
    case OpKind::kUnion:
      lT = ext[0][0].get();
      rT = ext[0][1].get();
      total = lT->rows() + rT->rows();
      break;
    case OpKind::kEquiJoin: {
      lT = ext[0][0].get();
      rT = ext[0][1].get();
      // Same runtime choice as the standalone kernel: build on the
      // smaller side, probe with the larger (ties build right). The
      // build is blocking work and happens here, before any morsel.
      jbuild_right = rT->rows() <= lT->rows();
      const Table* build = jbuild_right ? rT : lT;
      stream = jbuild_right ? lT : rT;
      ColId build_col = jbuild_right ? hop.col2 : hop.col;
      jprobe_col = jbuild_right ? hop.col : hop.col2;
      Clock::time_point t0 = Clock::now();
      jindex = std::make_unique<RowGroups>(
          std::vector<const Column*>{&build->col(build_col)}, build->rows(),
          hop.value_join, /*member_rows=*/true);
      setup_ms[0] = MsSince(t0);
      total = stream->rows();
      break;
    }
    default:
      stream = ext[0][0].get();
      total = stream->rows();
  }
  // Theta stages prepare their build side once, before any morsel, too.
  std::vector<std::unique_ptr<ThetaBuild>> theta(nstages);
  for (size_t si = 0; si < nstages; ++si) {
    if (sops[si]->kind != OpKind::kThetaJoin) continue;
    Clock::time_point t0 = Clock::now();
    theta[si] =
        std::make_unique<ThetaBuild>(*ext[si][1], sops[si]->col2, ops_);
    setup_ms[si] = MsSince(t0);
  }

  const size_t morsels = NumMorsels(total);
  const bool step_sink = sops[nstages - 1]->kind == OpKind::kStep;
  std::vector<MorselOut> outs(morsels);
  const bool prof = stage_metrics != nullptr;
  // Per-(morsel, stage) measurements in disjoint slots; summed below.
  std::vector<double> st_ms;
  std::vector<size_t> st_in;
  std::vector<size_t> st_out;
  std::vector<uint64_t> st_fallback;
  if (prof) {
    st_ms.assign(morsels * nstages, 0);
    st_in.assign(morsels * nstages, 0);
    st_out.assign(morsels * nstages, 0);
    st_fallback.assign(morsels * nstages, 0);
  }

  // A join stage that feeds an in-pipe Project gathers only the columns
  // the Project reads: its interior table has no other reader.
  std::vector<const std::vector<ColId>*> needed(nstages, nullptr);
  std::vector<std::vector<ColId>> project_reads(nstages);
  for (size_t si = 0; si + 1 < nstages; ++si) {
    if (sops[si + 1]->kind != OpKind::kProject) continue;
    for (const auto& [n, o] : sops[si + 1]->proj) {
      project_reads[si].push_back(o);
    }
    needed[si] = &project_reads[si];
  }

  auto equi_probe = [&](size_t b,
                        size_t e) -> std::shared_ptr<Table> {
    std::vector<const Column*> probe_key = {&stream->col(jprobe_col)};
    std::vector<uint32_t> probe_rows;
    std::vector<uint32_t> build_rows;
    jindex->Probe(probe_key, b, e, [&](uint32_t pr, uint32_t g) {
      for (uint32_t br : jindex->rows(g)) {
        probe_rows.push_back(pr);
        build_rows.push_back(br);
      }
    });
    const std::vector<uint32_t>& l_rows =
        jbuild_right ? probe_rows : build_rows;
    const std::vector<uint32_t>& r_rows =
        jbuild_right ? build_rows : probe_rows;
    return GatherPairs(*lT, l_rows, *rT, r_rows, /*parallel=*/false,
                       needed[0]);
  };

  auto run_morsel = [&](size_t m) {
    size_t mb = m * morsel_rows_;
    size_t me = std::min(total, mb + morsel_rows_);
    MorselOut& mo = outs[m];
    std::shared_ptr<Table> cur;
    for (size_t si = 0; si < nstages; ++si) {
      // Morsel-stage boundary = the pipelined engine's chunk boundary:
      // same poll, same fault-injection coordinate space.
      if (!PollChunk().ok()) return;  // torn morsel; the trip latch wins
      const Op& op = *sops[si];
      const Table* in = si == 0 ? stream : cur.get();
      size_t b = si == 0 ? mb : 0;
      size_t e = si == 0 ? me : cur->rows();
      Clock::time_point t0;
      if (prof) t0 = Clock::now();
      uint64_t fallback = 0;
      Result<std::shared_ptr<Table>> r =
          [&]() -> Result<std::shared_ptr<Table>> {
        switch (op.kind) {
          case OpKind::kProject:
            return StageProjectM(op, *in, b, e);
          case OpKind::kSelect:
            return StageSelectM(op, *in, b, e);
          case OpKind::kFun:
            return StageFunM(op, *in, b, e);
          case OpKind::kUnion:
            return StageUnionM(*lT, *rT, b, e);
          case OpKind::kEquiJoin:
            return equi_probe(b, e);
          case OpKind::kThetaJoin:
            return StageThetaM(op, *in, b, e, *theta[si], needed[si],
                               &fallback);
          case OpKind::kStep: {
            Status st =
                StageStepM(op, *in, b, e, &mo.step_iters, &mo.step_nodes);
            if (!st.ok()) return st;
            return std::shared_ptr<Table>();
          }
          case OpKind::kRowId:
            return cur;  // ids are positions in the merged output
          default:
            return Internal("morsel plan: unfusable stage kind survived "
                            "the audit");
        }
      }();
      if (!r.ok()) {
        if (tripped_.load(std::memory_order_acquire)) return;
        // First error within the morsel: the stage loop stops at the
        // first failing stage, and each stage kernel fails on its first
        // bad row — exactly the serial scan order.
        mo.err_stage = static_cast<int>(si);
        mo.err = r.status();
        return;
      }
      cur = std::move(r).value();
      if (prof) {
        size_t slot = m * nstages + si;
        st_ms[slot] = MsSince(t0);
        st_fallback[slot] = fallback;
        if (si > 0) st_in[slot] = e - b;
        st_out[slot] = step_sink && si + 1 == nstages ? mo.step_iters.size()
                                                      : cur->rows();
      }
    }
    if (!step_sink) {
      mo.table = std::move(cur);
      mo.bytes = mo.table->ByteSize();
      ChargeMorsel(mo.bytes);
    }
  };

  if (pool_ != nullptr && pool_->threads() > 0 && morsels > 1) {
    pool_->ParallelFor(morsels, run_morsel);
  } else {
    for (size_t m = 0; m < morsels; ++m) run_morsel(m);
  }
  NoteChunks(morsels);

  auto release_parts = [&] {
    for (MorselOut& mo : outs) {
      ReleaseMorsel(mo.bytes);
      mo.bytes = 0;
    }
  };
  if (tripped_.load(std::memory_order_acquire)) {
    release_parts();
    return TripStatus();
  }
  // Cross-morsel error resolution: the failing stage with the smallest
  // op id, then the earliest morsel within it — the first error a serial
  // stage-at-a-time scan would have hit.
  int best_stage = -1;
  size_t best_m = 0;
  for (size_t m = 0; m < morsels; ++m) {
    if (outs[m].err_stage < 0) continue;
    if (best_stage < 0 || outs[m].err_stage < best_stage) {
      best_stage = outs[m].err_stage;
      best_m = m;
    }
  }
  if (best_stage >= 0) {
    release_parts();
    return outs[best_m].err;
  }

  // Ordered morsel merge.
  const Op& sop = *sops[nstages - 1];
  TablePtr result;
  if (step_sink) {
    // Step output is the globally sorted duplicate-free (iter, node)
    // set; concatenating the per-morsel sets, sorting and deduplicating
    // reproduces the single-call result exactly (chunked EvalStep's own
    // merge).
    std::vector<std::pair<int64_t, NodeIdx>> all;
    size_t n = 0;
    for (const MorselOut& mo : outs) n += mo.step_iters.size();
    all.reserve(n);
    for (const MorselOut& mo : outs) {
      for (size_t k = 0; k < mo.step_iters.size(); ++k) {
        all.emplace_back(mo.step_iters[k], mo.step_nodes[k]);
      }
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    Column ic(all.size());
    Column nc(all.size());
    for (size_t k = 0; k < all.size(); ++k) {
      ic[k] = Value::Int(all[k].first);
      nc[k] = Value::Node(all[k].second);
    }
    auto out = std::make_shared<Table>();
    out->AddColumn(col::iter(), std::move(ic));
    out->AddColumn(col::item(), std::move(nc));
    out->SetRows(all.size());
    result = out;
  } else if (morsels == 1) {
    result = outs[0].table;  // the single part IS the concatenation
  } else {
    // Concatenate in morsel order, column by column; each part drops its
    // reference to a column as soon as it is copied, so the transient
    // peak is the merged output plus one part column — not two full
    // copies of the output.
    size_t rows_total = 0;
    for (const MorselOut& mo : outs) rows_total += mo.table->rows();
    auto out = std::make_shared<Table>();
    const std::vector<ColId> schema = outs[0].table->schema();
    for (ColId c : schema) {
      // The merge moves a lot of bytes: stay responsive to
      // cancel/deadline, but do not advance the chunk-fault coordinate —
      // merge granularity is an implementation detail, not a replayable
      // fault point.
      if (!PollGovernor().ok()) break;
      Column col(rows_total);
      size_t off = 0;
      for (const MorselOut& mo : outs) {
        const Column& src = mo.table->col(c);
        std::copy(src.begin(), src.end(), col.begin() + off);
        off += src.size();
        mo.table->ReleaseColumn(c);
      }
      out->AddColumn(c, std::move(col));
    }
    out->SetRows(rows_total);
    result = out;
  }
  release_parts();
  if (tripped_.load(std::memory_order_acquire)) return TripStatus();

  if (sop.kind == OpKind::kRowId) {
    // # over the merged stream: positions in the concatenation-in-morsel-
    // order equal positions in the standalone input, so the ids match the
    // operator-at-a-time numbering exactly.
    size_t n = result->rows();
    Column ids(n);
    for (size_t r = 0; r < n; ++r) {
      ids[r] = Value::Int(static_cast<int64_t>(r) + 1);
    }
    auto out = std::make_shared<Table>();
    for (ColId c : result->schema()) out->AddColumn(c, result->col_ptr(c));
    out->AddColumn(sop.col, std::move(ids));
    out->SetRows(n);
    result = out;
  }

  if (prof) {
    for (size_t si = 0; si < nstages; ++si) {
      Profile::OpMetrics m;
      m.op = pl.stages[si].op;
      m.pipeline = static_cast<int64_t>(pidx);
      m.chunks = morsels;
      m.queue_ms = 0;  // queue wait belongs to the unit, counted once
      double ms = setup_ms[si];
      size_t irows = 0;
      size_t orows = 0;
      for (size_t mm = 0; mm < morsels; ++mm) {
        size_t slot = mm * nstages + si;
        ms += st_ms[slot];
        irows += st_in[slot];
        orows += st_out[slot];
        m.theta_fallback_pairs += st_fallback[slot];
      }
      // Materialized (non-pipe) inputs count once, as standalone
      // evaluation would; the streamed input was summed per morsel.
      const Op& op = *sops[si];
      for (size_t ci = 0; ci < op.children.size(); ++ci) {
        if (ext[si][ci] != nullptr) irows += ext[si][ci]->rows();
      }
      m.ms = ms;
      m.in_rows = irows;
      m.out_rows = si + 1 == nstages ? result->rows() : orows;
      stage_metrics->push_back(std::move(m));
    }
    pm->id = pidx;
    pm->head = pl.head();
    pm->sink = pl.sink();
    pm->stages = nstages;
    pm->morsels = morsels;
    pm->in_rows = total;
    pm->out_rows = result->rows();
  }
  return TablePtr(result);
}

std::shared_ptr<Table> Evaluator::StageProjectM(const Op& op, const Table& in,
                                                size_t b, size_t e) {
  auto out = std::make_shared<Table>();
  for (const auto& [n, o] : op.proj) out->AddColumn(n, SliceOrShare(in, o, b, e));
  out->SetRows(e - b);
  return out;
}

Result<std::shared_ptr<Table>> Evaluator::StageSelectM(const Op& op,
                                                       const Table& in,
                                                       size_t b, size_t e) {
  const Column& flags = in.col(op.col);
  std::vector<uint32_t> rows;
  for (size_t r = b; r < e; ++r) {
    const Value& v = flags[r];
    if (v.kind != ValueKind::kBool) {
      return TypeError("selection column is not boolean");
    }
    if (v.b) rows.push_back(static_cast<uint32_t>(r));
  }
  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) {
    const Column& src = in.col(c);
    Column col(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) col[k] = src[rows[k]];
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(rows.size());
  return out;
}

Result<std::shared_ptr<Table>> Evaluator::StageFunM(const Op& op,
                                                    const Table& in, size_t b,
                                                    size_t e) {
  std::vector<const Column*> args = ColPtrs(in, op.args);
  Column resultc(e - b);
  for (size_t r = b; r < e; ++r) {
    Result<Value> v = ApplyFun(op, args, r);
    if (!v.ok()) return v.status();
    resultc[r - b] = std::move(v).value();
  }
  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, SliceOrShare(in, c, b, e));
  out->AddColumn(op.col, std::move(resultc));
  out->SetRows(e - b);
  return out;
}

std::shared_ptr<Table> Evaluator::StageUnionM(const Table& l, const Table& r,
                                              size_t b, size_t e) {
  // The morsel domain is the concatenation of both inputs; [b, e) may
  // straddle the seam.
  size_t nl = l.rows();
  auto out = std::make_shared<Table>();
  for (ColId c : l.schema()) {
    Column col;
    col.reserve(e - b);
    if (b < nl) {
      const Column& lc = l.col(c);
      size_t hi = std::min(e, nl);
      col.insert(col.end(), lc.begin() + static_cast<ptrdiff_t>(b),
                 lc.begin() + static_cast<ptrdiff_t>(hi));
    }
    if (e > nl) {
      const Column& rc = r.col(c);
      size_t lo = b > nl ? b - nl : 0;
      col.insert(col.end(), rc.begin() + static_cast<ptrdiff_t>(lo),
                 rc.begin() + static_cast<ptrdiff_t>(e - nl));
    }
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(e - b);
  return out;
}

Result<std::shared_ptr<Table>> Evaluator::StageThetaM(
    const Op& op, const Table& in, size_t b, size_t e, const ThetaBuild& build,
    const std::vector<ColId>* only, uint64_t* fallback_pairs) {
  std::vector<uint32_t> l_rows;
  std::vector<uint32_t> r_rows;
  EXRQUY_RETURN_IF_ERROR(ThetaRange(op, in.col(op.col), b, e, build, &l_rows,
                                    &r_rows, fallback_pairs));
  return GatherPairs(in, l_rows, build.table, r_rows, /*parallel=*/false,
                     only);
}

Status Evaluator::StageStepM(const Op& op, const Table& in, size_t b, size_t e,
                             std::vector<int64_t>* out_iters,
                             std::vector<NodeIdx>* out_nodes) {
  const Column& iters = in.col(col::iter());
  const Column& items = in.col(col::item());
  std::vector<int64_t> ci;
  std::vector<NodeIdx> cn;
  ci.reserve(e - b);
  cn.reserve(e - b);
  for (size_t r = b; r < e; ++r) {
    if (items[r].kind != ValueKind::kNode) {
      return TypeError(std::string("path step ") + AxisName(op.axis) +
                       ":: applied to a non-node item");
    }
    EXRQUY_DCHECK(iters[r].kind == ValueKind::kInt);
    ci.push_back(iters[r].i);
    cn.push_back(items[r].node);
  }
  exrquy::EvalStep(*ctx_->store, op.axis, op.test, std::move(ci),
                   std::move(cn), out_iters, out_nodes);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Chunk helpers.

size_t Evaluator::NumChunks(size_t n) const {
  return n == 0 ? 1 : (n + chunk_rows_ - 1) / chunk_rows_;
}

size_t Evaluator::ForChunks(
    size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
  size_t chunks = NumChunks(n);
  auto run = [&](size_t c) {
    // Chunk-boundary governor poll: a tripped chunk leaves its slice
    // unwritten, which the post-EvalOp torn-table check turns into the
    // trip Status before the table can be observed.
    if (!PollChunk().ok()) return;
    size_t begin = c * chunk_rows_;
    fn(c, begin, std::min(n, begin + chunk_rows_));
  };
  if (pool_ == nullptr || pool_->threads() == 0 || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) run(c);
  } else {
    pool_->ParallelFor(chunks, run);
  }
  NoteChunks(chunks);
  return chunks;
}

TablePtr Evaluator::GatherParallel(const Table& in,
                                   const std::vector<uint32_t>& rows) {
  size_t n = rows.size();
  auto out = std::make_shared<Table>();
  if (n == in.rows()) {
    // Ascending rows that keep every row are the identity: share.
    for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
    out->SetRows(n);
    return out;
  }
  for (ColId c : in.schema()) {
    const Column& src = in.col(c);
    Column col(n);
    ForChunks(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) col[i] = src[rows[i]];
    });
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(n);
  return out;
}

std::shared_ptr<Table> Evaluator::GatherPairs(
    const Table& l, const std::vector<uint32_t>& l_rows, const Table& r,
    const std::vector<uint32_t>& r_rows, bool parallel,
    const std::vector<ColId>* only) {
  size_t n = l_rows.size();
  auto out = std::make_shared<Table>();
  auto gather_side = [&](const Table& side,
                         const std::vector<uint32_t>& rows) {
    for (ColId c : side.schema()) {
      if (only != nullptr &&
          std::find(only->begin(), only->end(), c) == only->end()) {
        continue;
      }
      const Column& src = side.col(c);
      Column col;
      if (parallel) {
        col.resize(n);
        ForChunks(n, [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) col[i] = src[rows[i]];
        });
      } else {
        col.reserve(n);  // one write per value, not zero-fill then copy
        for (uint32_t row : rows) col.push_back(src[row]);
      }
      out->AddColumn(c, std::move(col));
    }
  };
  gather_side(l, l_rows);
  gather_side(r, r_rows);
  out->SetRows(n);
  return out;
}

void Evaluator::ParallelStableSort(
    std::vector<uint32_t>* perm,
    const std::function<bool(uint32_t, uint32_t)>& less) {
  size_t n = perm->size();
  size_t chunks = NumChunks(n);
  if (chunks <= 1 || pool_ == nullptr || pool_->threads() == 0) {
    std::stable_sort(perm->begin(), perm->end(), less);
    return;
  }
  // Stable-sort each chunk, then stably merge chunk pairs bottom-up.
  // std::merge prefers the left range on ties, so the result is the
  // unique stable ordering — byte-identical to one big stable_sort.
  ForChunks(n, [&](size_t, size_t begin, size_t end) {
    std::stable_sort(perm->begin() + begin, perm->begin() + end, less);
  });
  // A trip leaves some chunks unsorted; merging unsorted ranges violates
  // std::merge's precondition, and the result is discarded anyway.
  if (tripped_.load(std::memory_order_acquire)) return;
  std::vector<uint32_t> buf(n);
  std::vector<uint32_t>* src = perm;
  std::vector<uint32_t>* dst = &buf;
  for (size_t width = chunk_rows_; width < n; width *= 2) {
    size_t pairs = (n + 2 * width - 1) / (2 * width);
    auto merge_pair = [&](size_t p) {
      size_t lo = p * 2 * width;
      size_t mid = std::min(n, lo + width);
      size_t hi = std::min(n, lo + 2 * width);
      std::merge(src->begin() + lo, src->begin() + mid, src->begin() + mid,
                 src->begin() + hi, dst->begin() + lo, less);
    };
    if (pairs > 1) {
      pool_->ParallelFor(pairs, merge_pair);
    } else {
      merge_pair(0);
    }
    std::swap(src, dst);
  }
  if (src != perm) *perm = *src;
}

// ---------------------------------------------------------------------------
// Operator kernels.

Result<TablePtr> Evaluator::EvalOp(const Op& op,
                                   const std::vector<TablePtr>& in) {
  auto child = [&](size_t i) -> const Table& { return *in[i]; };
  switch (op.kind) {
    case OpKind::kLit:
      return EvalLit(op);
    case OpKind::kProject:
      return EvalProject(op, child(0));
    case OpKind::kSelect:
      return EvalSelect(op, child(0));
    case OpKind::kEquiJoin:
      return EvalEquiJoin(op, child(0), child(1));
    case OpKind::kThetaJoin:
      return EvalThetaJoin(op, child(0), child(1));
    case OpKind::kCross:
      return EvalCross(op, child(0), child(1));
    case OpKind::kUnion:
      return EvalUnion(op, child(0), child(1));
    case OpKind::kDifference:
    case OpKind::kSemiJoin:
      return EvalDiffSemi(op, child(0), child(1));
    case OpKind::kDistinct:
      return EvalDistinct(op, child(0));
    case OpKind::kRowNum:
      return EvalRowNum(op, child(0));
    case OpKind::kRowId:
      return EvalRowId(op, child(0));
    case OpKind::kFun:
      return EvalFun(op, child(0));
    case OpKind::kAggr:
      return EvalAggr(op, child(0));
    case OpKind::kStep:
      return EvalStep(op, child(0));
    case OpKind::kDoc:
      return EvalDoc(op);
    case OpKind::kElem:
      return EvalElem(op, child(0), child(1));
    case OpKind::kAttr:
      return EvalAttr(op, child(0), child(1));
    case OpKind::kTextNode:
      return EvalText(op, child(0), child(1));
    case OpKind::kRange:
      return EvalRange(op, child(0));
    case OpKind::kCardCheck:
      return EvalCardCheck(op, child(0), child(1));
    case OpKind::kThetaCount:
      return EvalThetaCount(op, child(0), child(1));
  }
  return Internal("unhandled operator");
}

Result<TablePtr> Evaluator::EvalCardCheck(const Op& op, const Table& in,
                                          const Table& loop) {
  std::unordered_map<int64_t, int64_t> counts;
  const Column& iters = in.col(col::iter());
  for (size_t r = 0; r < in.rows(); ++r) ++counts[iters[r].i];
  const Column& loop_iters = loop.col(col::iter());
  for (size_t r = 0; r < loop.rows(); ++r) {
    auto it = counts.find(loop_iters[r].i);
    int64_t n = it == counts.end() ? 0 : it->second;
    if (n < op.min_card || n > op.max_card) {
      return CardinalityError("fn:" + ctx_->strings->Get(op.name) +
                              ": argument has " + std::to_string(n) +
                              " item(s)");
    }
  }
  // Pass through unchanged.
  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
  out->SetRows(in.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalRange(const Op& op, const Table& in) {
  const Column& iters = in.col(col::iter());
  const Column& lo = in.col(op.col);
  const Column& hi = in.col(op.col2);
  Column out_iter;
  Column out_item;
  for (size_t r = 0; r < in.rows(); ++r) {
    // The expansion kernel can produce orders of magnitude more rows than
    // it consumes, so it polls on its own output volume (below) as well
    // as periodically on input rows — the only kernel whose "one chunk of
    // work" is not bounded by its input size.
    if ((r & 1023) == 0) EXRQUY_RETURN_IF_ERROR(PollGovernor());
    auto as_int = [&](const Value& v) -> Result<int64_t> {
      if (v.kind == ValueKind::kInt) return v.i;
      EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(v));
      return static_cast<int64_t>(d.d);
    };
    EXRQUY_ASSIGN_OR_RETURN(int64_t a, as_int(lo[r]));
    EXRQUY_ASSIGN_OR_RETURN(int64_t b, as_int(hi[r]));
    if (b - a > 10'000'000) {
      return TypeError("range expression too large");
    }
    for (int64_t v = a; v <= b; ++v) {
      if ((out_item.size() & 0xFFFF) == 0xFFFF) {
        EXRQUY_RETURN_IF_ERROR(PollGovernor());
      }
      out_iter.push_back(iters[r]);
      out_item.push_back(Value::Int(v));
    }
  }
  size_t n = out_iter.size();
  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalLit(const Op& op) {
  auto out = std::make_shared<Table>();
  for (size_t i = 0; i < op.lit.cols.size(); ++i) {
    Column col;
    col.reserve(op.lit.rows.size());
    for (const auto& row : op.lit.rows) col.push_back(row[i]);
    out->AddColumn(op.lit.cols[i], std::move(col));
  }
  out->SetRows(op.lit.rows.size());
  return out;
}

Result<TablePtr> Evaluator::EvalProject(const Op& op, const Table& in) {
  auto out = std::make_shared<Table>();
  for (const auto& [n, o] : op.proj) out->AddColumn(n, in.col_ptr(o));
  out->SetRows(in.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalSelect(const Op& op, const Table& in) {
  const Column& flags = in.col(op.col);
  size_t n = in.rows();
  std::vector<std::vector<uint32_t>> parts(NumChunks(n));
  std::vector<uint8_t> bad(parts.size(), 0);
  ForChunks(n, [&](size_t c, size_t begin, size_t end) {
    std::vector<uint32_t>& rows = parts[c];
    for (size_t r = begin; r < end; ++r) {
      const Value& v = flags[r];
      if (v.kind != ValueKind::kBool) {
        bad[c] = 1;
        return;
      }
      if (v.b) rows.push_back(static_cast<uint32_t>(r));
    }
  });
  for (uint8_t b : bad) {
    if (b != 0) return TypeError("selection column is not boolean");
  }
  return GatherParallel(in, ConcatChunks(parts));
}

Result<TablePtr> Evaluator::EvalEquiJoin(const Op& op, const Table& l,
                                         const Table& r) {
  // Build on the smaller side, probe with the larger — chunk-parallel
  // over the probe side, matches concatenated in probe-row order.
  bool build_right = r.rows() <= l.rows();
  const Table& build = build_right ? r : l;
  const Table& probe = build_right ? l : r;
  ColId build_col = build_right ? op.col2 : op.col;
  ColId probe_col = build_right ? op.col : op.col2;

  // A value join's keys are item values where xs:string and
  // xs:untypedAtomic must hash alike (see NormalizeValueKey); scaffolding
  // joins keep bit-exact keys.
  RowGroups index({&build.col(build_col)}, build.rows(), op.value_join,
                  /*member_rows=*/true);
  std::vector<const Column*> probe_key = {&probe.col(probe_col)};
  size_t n = probe.rows();
  std::vector<std::vector<uint32_t>> probe_parts(NumChunks(n));
  std::vector<std::vector<uint32_t>> build_parts(probe_parts.size());
  ForChunks(n, [&](size_t c, size_t begin, size_t end) {
    index.Probe(probe_key, begin, end, [&](uint32_t pr, uint32_t g) {
      for (uint32_t br : index.rows(g)) {
        probe_parts[c].push_back(pr);
        build_parts[c].push_back(br);
      }
    });
  });
  std::vector<uint32_t> probe_rows = ConcatChunks(probe_parts);
  std::vector<uint32_t> build_rows = ConcatChunks(build_parts);
  const std::vector<uint32_t>& l_rows = build_right ? probe_rows : build_rows;
  const std::vector<uint32_t>& r_rows = build_right ? build_rows : probe_rows;

  return GatherPairs(l, l_rows, r, r_rows, /*parallel=*/true);
}

Status Evaluator::ThetaPairs(const Op& op, const Column& lk,
                             const ThetaBuild& build,
                             std::vector<uint32_t>* l_rows,
                             std::vector<uint32_t>* r_rows) {
  // The probe side is always the left input, chunked by left rows; each
  // chunk runs the one range body (ThetaRange), and chunks concatenate
  // in order — left-major with matches in right-row order, byte-identical
  // to a serial nested loop at any thread count. Errors latch per chunk
  // and resolve in chunk order (the first error a serial scan would hit).
  size_t chunks = NumChunks(lk.size());
  std::vector<std::vector<uint32_t>> l_parts(chunks);
  std::vector<std::vector<uint32_t>> r_parts(chunks);
  std::vector<uint64_t> fallback(chunks, 0);
  std::vector<Status> errs(chunks);
  ForChunks(lk.size(), [&](size_t c, size_t begin, size_t end) {
    errs[c] = ThetaRange(op, lk, begin, end, build, &l_parts[c], &r_parts[c],
                         &fallback[c]);
  });
  for (const Status& st : errs) {
    if (!st.ok()) return st;
  }
  for (uint64_t f : fallback) NoteThetaFallback(f);
  *l_rows = ConcatChunks(l_parts);
  *r_rows = ConcatChunks(r_parts);
  return Status::Ok();
}

Result<TablePtr> Evaluator::EvalThetaJoin(const Op& op, const Table& l,
                                          const Table& r) {
  ThetaBuild build(r, op.col2, ops_);
  std::vector<uint32_t> l_rows;
  std::vector<uint32_t> r_rows;
  EXRQUY_RETURN_IF_ERROR(ThetaPairs(op, l.col(op.col), build, &l_rows,
                                    &r_rows));
  return GatherPairs(l, l_rows, r, r_rows, /*parallel=*/true);
}

Result<TablePtr> Evaluator::EvalThetaCount(const Op& op, const Table& l,
                                           const Table& r) {
  // Aggr count|g (π g (Distinct (π g,h (ThetaJoin θ (L, R))))) without
  // the pairs. L and R rows are grouped by their iteration column (g on
  // one side, the partner h on the other) in first-appearance order, and
  // each g-group counts the h-groups holding a key that θ-matches one of
  // its own. Keys are cast once into the comparison domain ThetaJoin
  // would use (ThetaBuild). Output: the g-groups with a partner, in
  // first-appearance order.
  const bool group_left = l.HasCol(op.part);
  auto out = std::make_shared<Table>();
  Column part_out;
  Column result;
  if (l.rows() > 0 && r.rows() > 0) {
    const RowGroups lg({&l.col(group_left ? op.part : op.col2)}, l.rows(),
                       /*normalize_keys=*/false, /*member_rows=*/true);
    const RowGroups rg({&r.col(group_left ? op.col2 : op.part)}, r.rows(),
                       /*normalize_keys=*/false, /*member_rows=*/true);
    const Column& lk = l.col(op.keys[0]);
    ThetaBuild build(r, op.keys[1], ops_);
    std::vector<int64_t> li;
    std::vector<double> ld;
    const int64_t* ri = nullptr;
    const double* rd = nullptr;
    const bool band = op.fun == FunKind::kLt || op.fun == FunKind::kLe ||
                      op.fun == FunKind::kGt || op.fun == FunKind::kGe;
    const ThetaBuild::Domain domain =
        band ? build.Probe(lk, 0, l.rows(), &li, &ri, &ld, &rd)
             : ThetaBuild::kNone;
    auto poll = [this] { return PollGovernor(); };
    std::vector<int64_t> counts((group_left ? lg : rg).size(), 0);
    if (band && domain == ThetaBuild::kInt) {
      EXRQUY_RETURN_IF_ERROR(
          BandCounts(op.fun, li.data(), ri, lg, rg, group_left, poll, &counts));
    } else if (band && domain == ThetaBuild::kDouble) {
      EXRQUY_RETURN_IF_ERROR(
          BandCounts(op.fun, ld.data(), rd, lg, rg, group_left, poll, &counts));
    } else {
      // eq/ne, or keys without one domain: the ThetaJoin's own pairs
      // (same first error, same fallback accounting), each distinct
      // (g-group, h-group) pair counted once.
      std::vector<uint32_t> l_rows;
      std::vector<uint32_t> r_rows;
      EXRQUY_RETURN_IF_ERROR(ThetaPairs(op, lk, build, &l_rows, &r_rows));
      std::vector<uint32_t> lgid(l.rows());
      std::vector<uint32_t> rgid(r.rows());
      for (size_t x = 0; x < lg.size(); ++x) {
        for (uint32_t i : lg.rows(x)) lgid[i] = static_cast<uint32_t>(x);
      }
      for (size_t y = 0; y < rg.size(); ++y) {
        for (uint32_t j : rg.rows(y)) rgid[j] = static_cast<uint32_t>(y);
      }
      std::vector<uint64_t> group_pairs(l_rows.size());
      for (size_t k = 0; k < l_rows.size(); ++k) {
        uint64_t x = lgid[l_rows[k]];
        uint64_t y = rgid[r_rows[k]];
        group_pairs[k] = group_left ? x << 32 | y : y << 32 | x;
      }
      std::sort(group_pairs.begin(), group_pairs.end());
      group_pairs.erase(std::unique(group_pairs.begin(), group_pairs.end()),
                        group_pairs.end());
      for (uint64_t gp : group_pairs) ++counts[gp >> 32];
    }
    const RowGroups& gg = group_left ? lg : rg;
    const Column& gcol = (group_left ? l : r).col(op.part);
    for (size_t g = 0; g < counts.size(); ++g) {
      if (counts[g] == 0) continue;
      part_out.push_back(gcol[gg.reps()[g]]);
      result.push_back(Value::Int(counts[g]));
    }
  }
  const size_t n = result.size();
  out->AddColumn(op.part, std::move(part_out));
  out->AddColumn(op.col, std::move(result));
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalCross(const Op& op, const Table& l,
                                      const Table& r) {
  (void)op;
  size_t nl = l.rows();
  size_t nr = r.rows();
  size_t n = nl * nr;
  // Output row c pairs left row c / nr with right row c % nr — a pure
  // function of the output position, so chunks fill disjoint slices of
  // pre-sized columns in parallel.
  auto out = std::make_shared<Table>();
  for (ColId c : l.schema()) {
    const Column& src = l.col(c);
    Column col(n);
    ForChunks(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) col[i] = src[i / nr];
    });
    out->AddColumn(c, std::move(col));
  }
  for (ColId c : r.schema()) {
    const Column& src = r.col(c);
    Column col(n);
    ForChunks(n, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) col[i] = src[i % nr];
    });
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalUnion(const Op& op, const Table& l,
                                      const Table& r) {
  (void)op;
  size_t nl = l.rows();
  size_t nr = r.rows();
  auto out = std::make_shared<Table>();
  for (ColId c : l.schema()) {
    const Column& lc = l.col(c);
    const Column& rc = r.col(c);
    Column col(nl + nr);
    ForChunks(nl, [&](size_t, size_t begin, size_t end) {
      std::copy(lc.begin() + begin, lc.begin() + end, col.begin() + begin);
    });
    ForChunks(nr, [&](size_t, size_t begin, size_t end) {
      std::copy(rc.begin() + begin, rc.begin() + end,
                col.begin() + nl + begin);
    });
    out->AddColumn(c, std::move(col));
  }
  out->SetRows(nl + nr);
  return out;
}

Result<TablePtr> Evaluator::EvalDiffSemi(const Op& op, const Table& l,
                                         const Table& r) {
  RowGroups index(ColPtrs(r, op.keys), r.rows(), /*normalize_keys=*/false,
                  /*member_rows=*/false);
  std::vector<const Column*> probe = ColPtrs(l, op.keys);
  bool keep_matching = op.kind == OpKind::kSemiJoin;
  size_t n = l.rows();
  std::vector<std::vector<uint32_t>> parts(NumChunks(n));
  ForChunks(n, [&](size_t c, size_t begin, size_t end) {
    std::vector<uint8_t> matched(end - begin, 0);
    index.Probe(probe, begin, end,
                [&](uint32_t i, uint32_t) { matched[i - begin] = 1; });
    for (size_t i = begin; i < end; ++i) {
      if ((matched[i - begin] != 0) == keep_matching) {
        parts[c].push_back(static_cast<uint32_t>(i));
      }
    }
  });
  return GatherParallel(l, ConcatChunks(parts));
}

Result<TablePtr> Evaluator::EvalDistinct(const Op& op, const Table& in) {
  (void)op;
  // Each group's first row, ascending: first appearance wins, so the
  // output keeps input order.
  RowGroups groups(ColPtrs(in, in.schema()), in.rows(),
                   /*normalize_keys=*/false, /*member_rows=*/false);
  return GatherParallel(in, groups.reps());
}

Result<TablePtr> Evaluator::EvalRowNum(const Op& op, const Table& in) {
  // % — the blocking sort. Rows keep their positions; the new column
  // receives the dense per-group rank.
  size_t n = in.rows();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);

  const Column* part = op.part != kNoCol ? &in.col(op.part) : nullptr;
  std::vector<std::pair<const Column*, bool>> keys;
  for (const SortKey& k : op.order) {
    keys.emplace_back(&in.col(k.col), k.descending);
  }
  auto less = [&](uint32_t a, uint32_t b) {
    if (part != nullptr) {
      int c = ops_.OrderCompare((*part)[a], (*part)[b]);
      if (c != 0) return c < 0;
    }
    for (const auto& [col, desc] : keys) {
      int c = ops_.OrderCompare((*col)[a], (*col)[b]);
      if (c != 0) return desc ? c > 0 : c < 0;
    }
    return false;
  };
  if (ctx_->detect_sorted_inputs &&
      std::is_sorted(perm.begin(), perm.end(), less)) {
    // Physical order detection: the input already carries the requested
    // order, so the blocking sort degenerates to a scan.
    ctx_->sorts_skipped.fetch_add(1, std::memory_order_relaxed);
  } else {
    ParallelStableSort(&perm, less);
  }

  // Rank assignment carries a sequential dependency across group
  // boundaries — kept serial.
  Column ranks(n);
  int64_t rank = 0;
  for (size_t i = 0; i < n; ++i) {
    if (part != nullptr && i > 0) {
      bool new_group =
          ops_.OrderCompare((*part)[perm[i]], (*part)[perm[i - 1]]) != 0;
      if (new_group) rank = 0;
    }
    ranks[perm[i]] = Value::Int(++rank);
  }

  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
  out->AddColumn(op.col, std::move(ranks));
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalRowId(const Op& op, const Table& in) {
  // # — arbitrary unique numbers at negligible cost (a ROWID column).
  size_t n = in.rows();
  Column ids(n);
  ForChunks(n, [&](size_t, size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      ids[r] = Value::Int(static_cast<int64_t>(r) + 1);
    }
  });
  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
  out->AddColumn(op.col, std::move(ids));
  out->SetRows(n);
  return out;
}

Result<Value> Evaluator::ApplyFun(const Op& op,
                                  const std::vector<const Column*>& args,
                                  size_t row) {
  auto arg = [&](size_t i) -> const Value& { return (*args[i])[row]; };
  switch (op.fun) {
    case FunKind::kAdd:
    case FunKind::kSub:
    case FunKind::kMul:
    case FunKind::kDiv:
    case FunKind::kIDiv:
    case FunKind::kMod:
      return ops_.Arith(op.fun, arg(0), arg(1));
    case FunKind::kNeg: {
      EXRQUY_ASSIGN_OR_RETURN(Value v, ops_.ToDouble(arg(0)));
      if (arg(0).kind == ValueKind::kInt) {
        if (arg(0).i == INT64_MIN) {
          return TypeError("err:FOAR0002: integer overflow in negation");
        }
        return Value::Int(-arg(0).i);
      }
      return Value::Double(-v.d);
    }
    case FunKind::kEq:
    case FunKind::kNe:
    case FunKind::kLt:
    case FunKind::kLe:
    case FunKind::kGt:
    case FunKind::kGe:
      return ops_.Compare(op.fun, arg(0), arg(1));
    case FunKind::kNodeBefore:
    case FunKind::kNodeAfter:
    case FunKind::kNodeIs: {
      const Value& a = arg(0);
      const Value& b = arg(1);
      if (a.kind != ValueKind::kNode || b.kind != ValueKind::kNode) {
        return TypeError("node comparison on non-node operands");
      }
      if (op.fun == FunKind::kNodeBefore) return Value::Bool(a.node < b.node);
      if (op.fun == FunKind::kNodeAfter) return Value::Bool(a.node > b.node);
      return Value::Bool(a.node == b.node);
    }
    case FunKind::kAnd:
    case FunKind::kOr: {
      const Value& a = arg(0);
      const Value& b = arg(1);
      if (a.kind != ValueKind::kBool || b.kind != ValueKind::kBool) {
        return TypeError("boolean connective on non-boolean operands");
      }
      return Value::Bool(op.fun == FunKind::kAnd ? (a.b && b.b)
                                                 : (a.b || b.b));
    }
    case FunKind::kNot: {
      const Value& a = arg(0);
      if (a.kind != ValueKind::kBool) {
        return TypeError("fn:not on non-boolean operand");
      }
      return Value::Bool(!a.b);
    }
    case FunKind::kAtomize:
      return ops_.Atomize(arg(0));
    case FunKind::kToDouble:
      return ops_.ToDouble(arg(0));
    case FunKind::kToString:
      return ops_.ToString(arg(0));
    case FunKind::kContains: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value b, ops_.ToString(arg(1)));
      const std::string& hay = ctx_->strings->Get(a.str);
      const std::string& needle = ctx_->strings->Get(b.str);
      return Value::Bool(hay.find(needle) != std::string::npos);
    }
    case FunKind::kConcat: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value b, ops_.ToString(arg(1)));
      std::string s = ctx_->strings->Get(a.str);
      s += ctx_->strings->Get(b.str);
      return Value::Str(ctx_->strings->Intern(s));
    }
    case FunKind::kStringLength: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      return Value::Int(
          static_cast<int64_t>(ctx_->strings->Get(a.str).size()));
    }
    case FunKind::kStartsWith:
    case FunKind::kEndsWith: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value b, ops_.ToString(arg(1)));
      const std::string& s = ctx_->strings->Get(a.str);
      const std::string& p = ctx_->strings->Get(b.str);
      if (p.size() > s.size()) return Value::Bool(false);
      if (op.fun == FunKind::kStartsWith) {
        return Value::Bool(s.compare(0, p.size(), p) == 0);
      }
      return Value::Bool(s.compare(s.size() - p.size(), p.size(), p) == 0);
    }
    case FunKind::kUpperCase:
    case FunKind::kLowerCase: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      std::string s = ctx_->strings->Get(a.str);
      for (char& c : s) {
        c = op.fun == FunKind::kUpperCase
                ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
                : static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      return Value::Str(ctx_->strings->Intern(s));
    }
    case FunKind::kNormalizeSpace: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      const std::string& s = ctx_->strings->Get(a.str);
      std::string out;
      bool in_space = true;  // also trims leading whitespace
      for (char c : s) {
        if (std::isspace(static_cast<unsigned char>(c))) {
          if (!in_space) out += ' ';
          in_space = true;
        } else {
          out += c;
          in_space = false;
        }
      }
      while (!out.empty() && out.back() == ' ') out.pop_back();
      return Value::Str(ctx_->strings->Intern(out));
    }
    case FunKind::kSubstring2:
    case FunKind::kSubstring3: {
      EXRQUY_ASSIGN_OR_RETURN(Value a, ops_.ToString(arg(0)));
      EXRQUY_ASSIGN_OR_RETURN(Value s1, ops_.ToDouble(arg(1)));
      const std::string& s = ctx_->strings->Get(a.str);
      // XQuery substring positions are 1-based and rounded.
      int64_t start = static_cast<int64_t>(std::llround(s1.d));
      int64_t end;  // exclusive, 1-based
      if (op.fun == FunKind::kSubstring3) {
        EXRQUY_ASSIGN_OR_RETURN(Value s2, ops_.ToDouble(arg(2)));
        end = start + static_cast<int64_t>(std::llround(s2.d));
      } else {
        end = static_cast<int64_t>(s.size()) + 1;
      }
      start = std::max<int64_t>(start, 1);
      end = std::min<int64_t>(end, static_cast<int64_t>(s.size()) + 1);
      std::string out = start < end
                            ? s.substr(static_cast<size_t>(start - 1),
                                       static_cast<size_t>(end - start))
                            : "";
      return Value::Str(ctx_->strings->Intern(out));
    }
    case FunKind::kAbs:
    case FunKind::kFloor:
    case FunKind::kCeiling:
    case FunKind::kRound: {
      Value a = arg(0);
      if (a.kind == ValueKind::kUntyped || a.kind == ValueKind::kString) {
        EXRQUY_ASSIGN_OR_RETURN(a, ops_.ToDouble(a));
      }
      if (a.kind == ValueKind::kInt) {
        return op.fun == FunKind::kAbs ? Value::Int(std::llabs(a.i)) : a;
      }
      if (a.kind != ValueKind::kDouble) {
        return TypeError("numeric function on non-numeric operand");
      }
      switch (op.fun) {
        case FunKind::kAbs:
          return Value::Double(std::fabs(a.d));
        case FunKind::kFloor:
          return Value::Double(std::floor(a.d));
        case FunKind::kCeiling:
          return Value::Double(std::ceil(a.d));
        default:
          // fn:round: round half up (toward positive infinity).
          return Value::Double(std::floor(a.d + 0.5));
      }
    }
    case FunKind::kNodeName: {
      const Value& a = arg(0);
      if (a.kind != ValueKind::kNode) {
        return TypeError("fn:name on a non-node item");
      }
      return Value::Str(ctx_->store->name(a.node));
    }
  }
  return Internal("unhandled function");
}

Result<TablePtr> Evaluator::EvalFun(const Op& op, const Table& in) {
  std::vector<const Column*> args = ColPtrs(in, op.args);
  size_t n = in.rows();
  Column result(n);
  std::vector<Status> errs(NumChunks(n));
  ForChunks(n, [&](size_t c, size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      Result<Value> v = ApplyFun(op, args, r);
      if (!v.ok()) {
        // First error in the chunk == first error a serial scan of this
        // chunk would hit; chunk order resolves the rest below.
        errs[c] = v.status();
        return;
      }
      result[r] = std::move(v).value();
    }
  });
  for (const Status& st : errs) {
    if (!st.ok()) return st;
  }
  auto out = std::make_shared<Table>();
  for (ColId c : in.schema()) out->AddColumn(c, in.col_ptr(c));
  out->AddColumn(op.col, std::move(result));
  out->SetRows(n);
  return out;
}

Result<TablePtr> Evaluator::EvalAggr(const Op& op, const Table& in) {
  // Group rows by the partition column (first-appearance order keeps the
  // output deterministic); without one, every row is in the one group.
  std::optional<RowGroups> groups;
  std::vector<uint32_t> all_rows;
  if (op.part != kNoCol) {
    groups.emplace(std::vector<const Column*>{&in.col(op.part)}, in.rows(),
                   /*normalize_keys=*/false, /*member_rows=*/true);
  } else {
    all_rows.resize(in.rows());
    std::iota(all_rows.begin(), all_rows.end(), 0);
  }
  const size_t ngroups = groups ? groups->size() : 1;

  const Column* arg =
      op.aggr == AggrKind::kCount ? nullptr : &in.col(op.col2);
  const Column* order =
      op.keys.empty() ? nullptr : &in.col(op.keys[0]);

  Column part_out;
  Column result;
  for (size_t g = 0; g < ngroups; ++g) {
    std::span<const uint32_t> rows =
        groups ? groups->rows(g) : std::span<const uint32_t>(all_rows);
    Value v;
    switch (op.aggr) {
      case AggrKind::kCount:
        v = Value::Int(static_cast<int64_t>(rows.size()));
        break;
      case AggrKind::kSum:
      case AggrKind::kAvg: {
        Value acc = Value::Int(0);
        for (uint32_t r : rows) {
          EXRQUY_ASSIGN_OR_RETURN(acc,
                                  ops_.Arith(FunKind::kAdd, acc, (*arg)[r]));
        }
        if (op.aggr == AggrKind::kAvg) {
          EXRQUY_ASSIGN_OR_RETURN(Value d, ops_.ToDouble(acc));
          v = Value::Double(d.d / static_cast<double>(rows.size()));
        } else {
          v = acc;
        }
        break;
      }
      case AggrKind::kMax:
      case AggrKind::kMin: {
        // fn:max/fn:min cast untyped values to xs:double when every value
        // parses as a number; otherwise compare as strings.
        bool numeric = true;
        for (uint32_t r : rows) {
          Result<Value> d = ops_.ToDouble((*arg)[r]);
          if (!d.ok()) {
            numeric = false;
            break;
          }
        }
        bool want_max = op.aggr == AggrKind::kMax;
        bool first = true;
        Value best;
        for (uint32_t r : rows) {
          Value cand = (*arg)[r];
          if (numeric) {
            EXRQUY_ASSIGN_OR_RETURN(cand, ops_.ToDouble(cand));
          }
          if (first) {
            best = cand;
            first = false;
            continue;
          }
          int c = ops_.OrderCompare(cand, best);
          if (want_max ? c > 0 : c < 0) best = cand;
        }
        v = best;
        break;
      }
      case AggrKind::kEbv: {
        if (rows.size() == 1) {
          v = Value::Bool(ops_.EbvSingle((*arg)[rows[0]]));
          break;
        }
        bool any_node = false;
        for (uint32_t r : rows) {
          if ((*arg)[r].kind == ValueKind::kNode) {
            any_node = true;
            break;
          }
        }
        if (!any_node) {
          return TypeError(
              "effective boolean value of a multi-item atomic sequence");
        }
        v = Value::Bool(true);
        break;
      }
      case AggrKind::kStrJoin: {
        std::vector<uint32_t> sorted(rows.begin(), rows.end());
        if (order != nullptr) {
          std::stable_sort(sorted.begin(), sorted.end(),
                           [&](uint32_t a, uint32_t b) {
                             return ops_.OrderCompare((*order)[a],
                                                      (*order)[b]) < 0;
                           });
        }
        const std::string& sep = ctx_->strings->Get(op.name);
        std::string s;
        for (size_t i = 0; i < sorted.size(); ++i) {
          if (i > 0) s += sep;
          EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString((*arg)[sorted[i]]));
          s += ctx_->strings->Get(sv.str);
        }
        v = Value::Str(ctx_->strings->Intern(s));
        break;
      }
    }
    if (op.part != kNoCol) {
      part_out.push_back(in.col(op.part)[groups->reps()[g]]);
    }
    result.push_back(v);
  }

  auto out = std::make_shared<Table>();
  if (op.part != kNoCol) out->AddColumn(op.part, std::move(part_out));
  out->AddColumn(op.col, std::move(result));
  out->SetRows(ngroups);
  return out;
}

Result<TablePtr> Evaluator::EvalStep(const Op& op, const Table& in) {
  const Column& iters = in.col(col::iter());
  const Column& items = in.col(col::item());
  size_t n = in.rows();
  for (size_t r = 0; r < n; ++r) {
    if (items[r].kind != ValueKind::kNode) {
      return TypeError(std::string("path step ") + AxisName(op.axis) +
                       ":: applied to a non-node item");
    }
    EXRQUY_DCHECK(iters[r].kind == ValueKind::kInt);
  }

  std::vector<int64_t> out_iters;
  std::vector<NodeIdx> out_nodes;
  size_t chunks = NumChunks(n);
  if (chunks <= 1) {
    std::vector<int64_t> ctx_iters;
    std::vector<NodeIdx> ctx_nodes;
    ctx_iters.reserve(n);
    ctx_nodes.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      ctx_iters.push_back(iters[r].i);
      ctx_nodes.push_back(items[r].node);
    }
    exrquy::EvalStep(*ctx_->store, op.axis, op.test, std::move(ctx_iters),
                     std::move(ctx_nodes), &out_iters, &out_nodes);
  } else {
    // Each chunk evaluates its context subset independently; EvalStep
    // output is the sorted duplicate-free (iter, node) result set, so
    // concatenating the chunks, sorting and deduplicating reproduces the
    // single-call result exactly.
    std::vector<std::vector<int64_t>> chunk_iters(chunks);
    std::vector<std::vector<NodeIdx>> chunk_nodes(chunks);
    ForChunks(n, [&](size_t c, size_t begin, size_t end) {
      std::vector<int64_t> ci;
      std::vector<NodeIdx> cn;
      ci.reserve(end - begin);
      cn.reserve(end - begin);
      for (size_t r = begin; r < end; ++r) {
        ci.push_back(iters[r].i);
        cn.push_back(items[r].node);
      }
      exrquy::EvalStep(*ctx_->store, op.axis, op.test, std::move(ci),
                       std::move(cn), &chunk_iters[c], &chunk_nodes[c]);
    });
    std::vector<std::pair<int64_t, NodeIdx>> all;
    size_t total = 0;
    for (const auto& ci : chunk_iters) total += ci.size();
    all.reserve(total);
    for (size_t c = 0; c < chunks; ++c) {
      for (size_t i = 0; i < chunk_iters[c].size(); ++i) {
        all.emplace_back(chunk_iters[c][i], chunk_nodes[c][i]);
      }
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    out_iters.reserve(all.size());
    out_nodes.reserve(all.size());
    for (const auto& [it, node] : all) {
      out_iters.push_back(it);
      out_nodes.push_back(node);
    }
  }

  size_t out_n = out_iters.size();
  Column ic(out_n);
  Column nc(out_n);
  ForChunks(out_n, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ic[i] = Value::Int(out_iters[i]);
      nc[i] = Value::Node(out_nodes[i]);
    }
  });
  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(ic));
  out->AddColumn(col::item(), std::move(nc));
  out->SetRows(out_n);
  return out;
}

Result<TablePtr> Evaluator::EvalDoc(const Op& op) {
  auto it = ctx_->documents.find(op.name);
  if (it == ctx_->documents.end()) {
    return NotFound("document not loaded: " + ctx_->strings->Get(op.name));
  }
  auto out = std::make_shared<Table>();
  out->AddColumn(col::item(), Column{Value::Node(it->second)});
  out->SetRows(1);
  return out;
}

namespace {

// Groups content rows by iter and yields each iter group's rows sorted
// by pos (sequence order establishes the new fragment's document order).
class ContentGroups {
 public:
  ContentGroups(const Table& content, const ValueOps& ops) {
    const Column& iters = content.col(col::iter());
    const Column& poss = content.col(col::pos());
    for (size_t r = 0; r < content.rows(); ++r) {
      groups_[iters[r].i].push_back(static_cast<uint32_t>(r));
    }
    for (auto& [iter, rows] : groups_) {
      std::stable_sort(rows.begin(), rows.end(),
                       [&](uint32_t a, uint32_t b) {
                         return ops.OrderCompare(poss[a], poss[b]) < 0;
                       });
    }
  }

  static const std::vector<uint32_t>& Empty() {
    static const std::vector<uint32_t>* empty = new std::vector<uint32_t>();
    return *empty;
  }

  const std::vector<uint32_t>& RowsFor(int64_t iter) const {
    auto it = groups_.find(iter);
    return it == groups_.end() ? Empty() : it->second;
  }

 private:
  std::unordered_map<int64_t, std::vector<uint32_t>> groups_;
};

}  // namespace

Result<TablePtr> Evaluator::EvalElem(const Op& op, const Table& content,
                                     const Table& loop) {
  ContentGroups groups(content, ops_);
  const Column& items = content.col(col::item());
  const Column& loop_iters = loop.col(col::iter());

  Column out_iter;
  Column out_item;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    int64_t it = loop_iters[lr].i;
    const std::vector<uint32_t>& rows = groups.RowsFor(it);

    NodeBuilder builder(ctx_->store);
    builder.BeginElement(op.name);
    // Attribute items first (XQuery requires attributes to precede other
    // content; we accept them anywhere, leniently).
    for (uint32_t r : rows) {
      const Value& v = items[r];
      if (v.kind == ValueKind::kNode &&
          ctx_->store->kind(v.node) == NodeKind::kAttribute) {
        builder.Attribute(ctx_->store->name(v.node),
                          ctx_->store->value(v.node));
      }
    }
    // Children: nodes are deep-copied, adjacent atomics merge into one
    // space-separated text node.
    std::string pending;
    bool have_pending = false;
    auto flush = [&] {
      if (have_pending) builder.Text(pending);
      pending.clear();
      have_pending = false;
    };
    for (uint32_t r : rows) {
      const Value& v = items[r];
      if (v.kind == ValueKind::kNode) {
        NodeKind k = ctx_->store->kind(v.node);
        if (k == NodeKind::kAttribute) continue;  // already handled
        flush();
        if (k == NodeKind::kDocument) {
          // Copying a document node copies its children.
          NodeIdx end = v.node + ctx_->store->size(v.node);
          NodeIdx c = v.node + 1;
          while (c <= end) {
            builder.CopySubtree(c);
            c += ctx_->store->size(c) + 1;
          }
        } else {
          builder.CopySubtree(v.node);
        }
      } else {
        if (have_pending) pending += ' ';
        pending += ops_.Render(v);
        have_pending = true;
      }
    }
    flush();
    builder.EndElement();
    NodeIdx node = builder.Finish();
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(loop.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalAttr(const Op& op, const Table& value,
                                     const Table& loop) {
  ContentGroups groups(value, ops_);
  const Column& items = value.col(col::item());
  const Column& loop_iters = loop.col(col::iter());

  Column out_iter;
  Column out_item;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    int64_t it = loop_iters[lr].i;
    std::string s;
    bool first = true;
    for (uint32_t r : groups.RowsFor(it)) {
      if (!first) s += ' ';
      first = false;
      Value v = ops_.Atomize(items[r]);
      EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(v));
      s += ctx_->strings->Get(sv.str);
    }
    NodeIdx node =
        ctx_->store->MakeAttribute(op.name, ctx_->strings->Intern(s));
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(loop.rows());
  return out;
}

Result<TablePtr> Evaluator::EvalText(const Op& op, const Table& content,
                                     const Table& loop) {
  (void)op;
  ContentGroups groups(content, ops_);
  const Column& items = content.col(col::item());
  const Column& loop_iters = loop.col(col::iter());

  Column out_iter;
  Column out_item;
  for (size_t lr = 0; lr < loop.rows(); ++lr) {
    int64_t it = loop_iters[lr].i;
    const std::vector<uint32_t>& rows = groups.RowsFor(it);
    if (rows.empty()) continue;  // text {()} yields the empty sequence
    std::string s;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) s += ' ';
      Value v = ops_.Atomize(items[rows[i]]);
      EXRQUY_ASSIGN_OR_RETURN(Value sv, ops_.ToString(v));
      s += ctx_->strings->Get(sv.str);
    }
    NodeIdx node = ctx_->store->MakeText(ctx_->strings->Intern(s));
    out_iter.push_back(Value::Int(it));
    out_item.push_back(Value::Node(node));
  }

  size_t n = out_iter.size();
  auto out = std::make_shared<Table>();
  out->AddColumn(col::iter(), std::move(out_iter));
  out->AddColumn(col::item(), std::move(out_item));
  out->SetRows(n);
  return out;
}

// ---------------------------------------------------------------------------

namespace {

std::vector<uint32_t> RowsInSequenceOrder(const Table& t,
                                          const ValueOps& ops) {
  const Column& iters = t.col(col::iter());
  const Column& poss = t.col(col::pos());
  std::vector<uint32_t> rows(t.rows());
  std::iota(rows.begin(), rows.end(), 0);
  std::stable_sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
    int c = ops.OrderCompare(iters[a], iters[b]);
    if (c != 0) return c < 0;
    return ops.OrderCompare(poss[a], poss[b]) < 0;
  });
  return rows;
}

}  // namespace

Result<std::string> SerializeResult(const Table& t, const EvalContext& ctx) {
  ValueOps ops(ctx.strings, ctx.store);
  std::string out;
  // Adjacent "textual" items (atomics, attribute nodes, text nodes) are
  // separated by one space so result items stay distinguishable; markup
  // items (elements) serialize back to back.
  bool prev_textual = false;
  for (uint32_t r : RowsInSequenceOrder(t, ops)) {
    Value v = t.at(col::item(), r);
    bool textual =
        v.kind != ValueKind::kNode ||
        ctx.store->kind(v.node) == NodeKind::kAttribute ||
        ctx.store->kind(v.node) == NodeKind::kText;
    if (prev_textual && textual) out += ' ';
    if (v.kind == ValueKind::kNode) {
      SerializeNode(*ctx.store, v.node, {}, &out);
    } else {
      EscapeText(ops.Render(v), &out);
    }
    prev_textual = textual;
  }
  return out;
}

Result<std::vector<std::string>> ResultItems(const Table& t,
                                             const EvalContext& ctx) {
  ValueOps ops(ctx.strings, ctx.store);
  std::vector<std::string> items;
  items.reserve(t.rows());
  for (uint32_t r : RowsInSequenceOrder(t, ops)) {
    Value v = t.at(col::item(), r);
    if (v.kind == ValueKind::kNode) {
      items.push_back(SerializeNode(*ctx.store, v.node));
    } else {
      items.push_back(ops.Render(v));
    }
  }
  return items;
}

}  // namespace exrquy
