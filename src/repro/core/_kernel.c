/*
 * The per-event loop of the hash-table profilers (Sections 5-6), and
 * the exact pair count of the perfect profiler they are scored
 * against (Section 5.5).
 *
 * repro_observe() feeds a chunk of (pc, value) events through one
 * profiler, event by event, with exactly the semantics of the scalar
 * observe() in single_hash.py / multi_hash.py: a shielded accumulator
 * lookup, the hash of every table from its folded 16-bit chunk tables,
 * the counter update (plain, or conservative: only the minimum
 * counters), the promotion test, and at most one accumulator insert.
 *
 * repro_count_pairs() adds one piece of an interval to an
 * open-addressed table that counts every distinct (pc, value) pair;
 * repro_lookup_pairs() reads counts back from it.
 *
 * repro.core.kernels compiles this file once with the system C
 * compiler and calls it through ctypes.  All state lives in arrays the
 * Python side allocated: the int64 counter tables, the hash functions'
 * fold tables, the accumulator's entry arrays with their
 * open-addressed index, and an interval's pair table.  Nothing is
 * allocated here.
 */

#include <stdint.h>

/* Entry states of the accumulator. */
enum { ENTRY_FREE = 0, ENTRY_PINNED = 1, ENTRY_REPLACEABLE = 2 };

/* Index slots that hold no entry. */
enum { SLOT_EMPTY = -1, SLOT_DELETED = -2 };

/* Running totals, in the order of the count indices in kernels.py. */
enum {
    COUNT_EVENTS, COUNT_HITS, COUNT_UPDATES, COUNT_PROMOTIONS,
    COUNT_REJECTED, COUNT_EVICTIONS, COUNT_SIZE, COUNT_REPLACEABLE,
    COUNT_NEXT_STAMP, COUNT_REINDEX
};

/* Entries per folded chunk table: one per 16-bit chunk value. */
#define FOLD_ENTRIES 65536

/* Mirrors kernels._State field for field. */
typedef struct {
    int64_t num_tables;
    int64_t threshold;
    int64_t max_value;
    int64_t capacity;
    int64_t slot_mask;
    int64_t single;          /* SH: promote on count >= threshold */
    int64_t conservative;    /* C1: bump only the minimum counters */
    int64_t shielding;
    int64_t resetting;
    int64_t *counts;         /* running totals, COUNT_* */
    int64_t **counters;      /* num_tables counter arrays */
    const int32_t **folds;   /* num_tables x (8 x FOLD_ENTRIES) */
    const int64_t *fold_base; /* num_tables */
    int64_t *work;           /* 2 x num_tables, per-event indices and values */
    uint64_t *entry_pc;
    uint64_t *entry_value;
    int64_t *entry_count;
    int64_t *entry_stamp;
    int8_t *entry_state;
    int32_t *slots;          /* entry number, SLOT_EMPTY or SLOT_DELETED */
} repro_state;

static inline uint64_t key_hash(uint64_t pc, uint64_t value)
{
    uint64_t h = pc * 0x9E3779B97F4A7C15ULL ^ value;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return h;
}

/* Entry number of (pc, value), or -1 when it is not resident. */
static inline int64_t find(const repro_state *s, uint64_t pc,
                           uint64_t value)
{
    uint64_t position = key_hash(pc, value) & (uint64_t)s->slot_mask;
    for (;;) {
        int32_t entry = s->slots[position];
        if (entry == SLOT_EMPTY)
            return -1;
        if (entry >= 0 && s->entry_pc[entry] == pc
                && s->entry_value[entry] == value)
            return entry;
        position = (position + 1) & (uint64_t)s->slot_mask;
    }
}

/* Index slot that holds entry number *entry*. */
static int64_t slot_of(const repro_state *s, int64_t entry)
{
    uint64_t position = key_hash(s->entry_pc[entry], s->entry_value[entry])
                        & (uint64_t)s->slot_mask;
    while (s->slots[position] != entry)
        position = (position + 1) & (uint64_t)s->slot_mask;
    return (int64_t)position;
}

/* Add entry number *entry*, known not to be resident, to the index. */
static void link(repro_state *s, int64_t entry)
{
    uint64_t position = key_hash(s->entry_pc[entry], s->entry_value[entry])
                        & (uint64_t)s->slot_mask;
    while (s->slots[position] >= 0)
        position = (position + 1) & (uint64_t)s->slot_mask;
    s->slots[position] = (int32_t)entry;
}

/* Rebuild the index after kernels.CompiledAccumulator.end_interval
 * compacted the entries; this also clears the deleted slots. */
static void reindex(repro_state *s)
{
    for (int64_t position = 0; position <= s->slot_mask; position++)
        s->slots[position] = SLOT_EMPTY;
    for (int64_t entry = 0; entry < s->counts[COUNT_SIZE]; entry++)
        link(s, entry);
    s->counts[COUNT_REINDEX] = 0;
}

/* AccumulatorTable.record_hit: count one occurrence of a resident
 * tuple; a retained entry that re-crosses the threshold is pinned. */
static inline void hit(repro_state *s, int64_t entry)
{
    int64_t count = ++s->entry_count[entry];
    if (s->entry_state[entry] == ENTRY_REPLACEABLE
            && count >= s->threshold) {
        s->entry_state[entry] = ENTRY_PINNED;
        s->counts[COUNT_REPLACEABLE]--;
    }
}

/* AccumulatorTable.insert: use a free entry, else evict the
 * replaceable entry with the lowest count, then the oldest stamp.
 * Returns 0 when every entry is pinned and the promotion is dropped. */
static int promote(repro_state *s, uint64_t pc, uint64_t value,
                   int64_t count)
{
    int64_t *counts = s->counts;
    int64_t entry;
    if (counts[COUNT_SIZE] < s->capacity) {
        entry = counts[COUNT_SIZE]++;
    } else {
        if (counts[COUNT_REPLACEABLE] == 0) {
            counts[COUNT_REJECTED]++;
            return 0;
        }
        entry = -1;
        for (int64_t j = 0; j < counts[COUNT_SIZE]; j++) {
            if (s->entry_state[j] != ENTRY_REPLACEABLE)
                continue;
            if (entry < 0 || s->entry_count[j] < s->entry_count[entry]
                    || (s->entry_count[j] == s->entry_count[entry]
                        && s->entry_stamp[j] < s->entry_stamp[entry]))
                entry = j;
        }
        s->slots[slot_of(s, entry)] = SLOT_DELETED;
        counts[COUNT_EVICTIONS]++;
        counts[COUNT_REPLACEABLE]--;
    }
    s->entry_pc[entry] = pc;
    s->entry_value[entry] = value;
    s->entry_count[entry] = count;
    s->entry_stamp[entry] = counts[COUNT_NEXT_STAMP]++;
    s->entry_state[entry] = ENTRY_PINNED;
    link(s, entry);
    counts[COUNT_PROMOTIONS]++;
    return 1;
}

/* TupleHashFunction.__call__ from the zero-normalized fold tables:
 * one lookup per non-zero 16-bit chunk of each field. */
static inline int64_t table_index(const int32_t *fold, int64_t base,
                                  uint64_t pc, uint64_t value)
{
    int32_t index = (int32_t)base;
    const int32_t *chunk = fold;
    for (uint64_t rest = pc; rest; rest >>= 16, chunk += FOLD_ENTRIES)
        index ^= chunk[rest & 0xFFFF];
    chunk = fold + 4 * FOLD_ENTRIES;
    for (uint64_t rest = value; rest; rest >>= 16, chunk += FOLD_ENTRIES)
        index ^= chunk[rest & 0xFFFF];
    return index;
}

void repro_observe(repro_state *s, const uint64_t *pcs,
                   const uint64_t *values, int64_t n)
{
    const int64_t tables = s->num_tables;
    const int64_t threshold = s->threshold;
    const int64_t max_value = s->max_value;
    int64_t *indices = s->work;
    int64_t *before = s->work + tables;
    int64_t hits = 0, updates = 0;

    if (s->counts[COUNT_REINDEX])
        reindex(s);
    for (int64_t i = 0; i < n; i++) {
        const uint64_t pc = pcs[i], value = values[i];
        const int64_t entry = find(s, pc, value);
        if (entry >= 0 && s->shielding) {
            hit(s, entry);
            hits++;
            continue;
        }
        if (s->single) {
            int64_t *counter = s->counters[0]
                + table_index(s->folds[0], s->fold_base[0], pc, value);
            int64_t count = *counter + 1;
            if (count > max_value)
                count = max_value;
            *counter = count;
            updates++;
            if (count >= threshold && entry < 0
                    && promote(s, pc, value, count) && s->resetting)
                *counter = 0;
        } else {
            int64_t minimum = max_value, estimate = max_value;
            for (int64_t t = 0; t < tables; t++)
                indices[t] = table_index(s->folds[t], s->fold_base[t],
                                         pc, value);
            if (s->conservative) {
                for (int64_t t = 0; t < tables; t++) {
                    before[t] = s->counters[t][indices[t]];
                    if (before[t] < minimum)
                        minimum = before[t];
                }
                estimate = minimum + 1 > max_value ? max_value : minimum + 1;
                for (int64_t t = 0; t < tables; t++) {
                    if (before[t] == minimum) {
                        s->counters[t][indices[t]] = estimate;
                        updates++;
                    }
                }
            } else {
                for (int64_t t = 0; t < tables; t++) {
                    int64_t *counter = s->counters[t] + indices[t];
                    int64_t after = *counter + 1 > max_value
                                    ? max_value : *counter + 1;
                    if (*counter < minimum)
                        minimum = *counter;
                    if (after < estimate)
                        estimate = after;
                    *counter = after;
                }
                updates += tables;
            }
            /* Promotion fires on the crossing of the minimum counter. */
            if (minimum < threshold && threshold <= estimate && entry < 0
                    && promote(s, pc, value, estimate) && s->resetting) {
                for (int64_t t = 0; t < tables; t++)
                    s->counters[t][indices[t]] = 0;
            }
        }
        /* Without shielding a resident tuple is hashed and counted. */
        if (entry >= 0) {
            hit(s, entry);
            hits++;
        }
    }
    s->counts[COUNT_EVENTS] += n;
    s->counts[COUNT_HITS] += hits;
    s->counts[COUNT_UPDATES] += updates;
}

/* One distinct pair of an interval and its exact count. */
typedef struct {
    uint64_t pc;
    uint64_t value;
    int64_t count;
} repro_pair;

/* Mirrors kernels._PairTable field for field.  The Python side sizes
 * the table from the interval's event count before the first call, so
 * the entries never run out and the slots stay at most half full. */
typedef struct {
    uint64_t seed[2];
    int64_t slot_mask;
    int64_t size;            /* entries in use: the distinct pairs */
    int32_t *slots;          /* entry number or SLOT_EMPTY */
    repro_pair *entries;     /* in first-seen order */
} repro_pair_table;

/* MurmurHash3's 64-bit finalizer, a bijection. */
static inline uint64_t mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
}

/* First slot of (pc, value).  key_hash above applies a fixed,
 * invertible mixer to pc * K ^ value, so anyone could craft pairs that
 * share one probe chain and make the count quadratic; here both fields
 * pass through the mixer with a per-process seed, which the crafter
 * does not know. */
static inline uint64_t pair_slot(const repro_pair_table *t, uint64_t pc,
                                 uint64_t value)
{
    return mix64(mix64(pc ^ t->seed[0]) ^ value ^ t->seed[1])
           & (uint64_t)t->slot_mask;
}

/* The slot that holds the entry of (pc, value), or else the empty slot
 * that ends its probe chain. */
static inline uint64_t pair_position(const repro_pair_table *t,
                                     uint64_t pc, uint64_t value)
{
    const int32_t *slots = t->slots;
    const repro_pair *entries = t->entries;
    const uint64_t mask = (uint64_t)t->slot_mask;
    uint64_t position = pair_slot(t, pc, value);
    for (;;) {
        const int32_t entry = slots[position];
        if (entry == SLOT_EMPTY || (entries[entry].pc == pc
                                    && entries[entry].value == value))
            return position;
        position = (position + 1) & mask;
    }
}

void repro_count_pairs(repro_pair_table *t, const uint64_t *pcs,
                       const uint64_t *values, int64_t n)
{
    /* Locals, so that the stores into the entries need not reload them. */
    const repro_pair_table table = *t;
    int32_t *slots = t->slots;
    repro_pair *entries = t->entries;
    int64_t size = t->size;

    for (int64_t i = 0; i < n; i++) {
        const uint64_t position = pair_position(&table, pcs[i], values[i]);
        const int32_t entry = slots[position];
        if (entry != SLOT_EMPTY) {
            entries[entry].count++;
            continue;
        }
        slots[position] = (int32_t)size;
        entries[size].pc = pcs[i];
        entries[size].value = values[i];
        entries[size].count = 1;
        size++;
    }
    t->size = size;
}

/* The count of every (pcs[i], values[i]) into counts[i], 0 if absent. */
void repro_lookup_pairs(const repro_pair_table *t, const uint64_t *pcs,
                        const uint64_t *values, int64_t n, int64_t *counts)
{
    for (int64_t i = 0; i < n; i++) {
        const int32_t entry = t->slots[pair_position(t, pcs[i], values[i])];
        counts[i] = entry == SLOT_EMPTY ? 0 : t->entries[entry].count;
    }
}
