/*
 * The per-event loop of the hash-table profilers (Sections 5-6), and
 * the exact pair count of the perfect profiler they are scored
 * against (Section 5.5).
 *
 * repro_observe() feeds a chunk of (pc, value) events through one
 * profiler, event by event, with exactly the semantics of the scalar
 * observe() in single_hash.py / multi_hash.py: a shielded accumulator
 * lookup, the hash of every table from its per-byte fold tables (16 KiB
 * per hash function), the counter update (plain, or conservative: only
 * the minimum counters), the promotion test, and at most one
 * accumulator insert.
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
 * allocated here.  Both open-addressed tables place a (pc, value) pair
 * by one seeded slot hash (slot_hash).
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

/* Entries per fold table row: one per byte value. */
#define BYTE_VALUES 256

/* Mirrors kernels._State field for field. */
typedef struct {
    uint64_t seed[2];        /* of slot_hash */
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
    const int32_t **folds;   /* num_tables x (16 x BYTE_VALUES) */
    const int64_t *fold_base; /* num_tables */
    int64_t *work;           /* 2 x num_tables, per-event indices and values */
    uint64_t *entry_pc;
    uint64_t *entry_value;
    int64_t *entry_count;
    int64_t *entry_stamp;
    int8_t *entry_state;
    int32_t *slots;          /* entry number, SLOT_EMPTY or SLOT_DELETED */
} repro_state;

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

/* The hash that places (pc, value) in an open-addressed table; its
 * first slot is the hash masked to the table.  Both fields pass
 * through the mixer with a per-process seed, which no one sending
 * pairs knows: a fixed mixer can be inverted, so anyone could craft
 * pairs that share one probe chain and make every lookup walk it. */
static inline uint64_t slot_hash(const uint64_t seed[2], uint64_t pc,
                                 uint64_t value)
{
    return mix64(mix64(pc ^ seed[0]) ^ value ^ seed[1]);
}

/* Entry number of (pc, value), whose slot_hash is *hash*, or -1 when
 * it is not resident. */
static inline int64_t find(const repro_state *s, uint64_t hash,
                           uint64_t pc, uint64_t value)
{
    const uint64_t mask = (uint64_t)s->slot_mask;
    uint64_t position = hash & mask;
    for (;;) {
        int32_t entry = s->slots[position];
        if (entry == SLOT_EMPTY)
            return -1;
        if (entry >= 0 && s->entry_pc[entry] == pc
                && s->entry_value[entry] == value)
            return entry;
        position = (position + 1) & mask;
    }
}

/* Index slot that holds entry number *entry*. */
static int64_t slot_of(const repro_state *s, int64_t entry)
{
    const uint64_t mask = (uint64_t)s->slot_mask;
    uint64_t position = slot_hash(s->seed, s->entry_pc[entry],
                                  s->entry_value[entry]) & mask;
    while (s->slots[position] != entry)
        position = (position + 1) & mask;
    return (int64_t)position;
}

/* Add entry number *entry*, known not to be resident, to the index. */
static void link(const repro_state *s, int64_t entry)
{
    const uint64_t mask = (uint64_t)s->slot_mask;
    uint64_t position = slot_hash(s->seed, s->entry_pc[entry],
                                  s->entry_value[entry]) & mask;
    while (s->slots[position] >= 0)
        position = (position + 1) & mask;
    s->slots[position] = (int32_t)entry;
}

/* Rebuild the index after kernels.CompiledAccumulator.end_interval
 * compacted the entries; this also clears the deleted slots. */
static void reindex(const repro_state *s)
{
    for (int64_t position = 0; position <= s->slot_mask; position++)
        s->slots[position] = SLOT_EMPTY;
    for (int64_t entry = 0; entry < s->counts[COUNT_SIZE]; entry++)
        link(s, entry);
    s->counts[COUNT_REINDEX] = 0;
}

/* AccumulatorTable.record_hit: count one occurrence of a resident
 * tuple; a retained entry that re-crosses the threshold is pinned. */
static inline void hit(const repro_state *s, int64_t entry)
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
static int promote(const repro_state *s, uint64_t pc, uint64_t value,
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

/* TupleHashFunction.__call__ from the zero-normalized per-byte fold
 * tables: row b folds the pc's byte b and row 8 + b the value's, low
 * byte first.  Every row is read, with no loop that depends on the
 * data: a zero byte reads entry 0 of its row, which is 0. */
static inline int64_t table_index(const int32_t *fold, int64_t base,
                                  uint64_t pc, uint64_t value)
{
#define LOOKUP(row, field, byte) \
    fold[(row) * BYTE_VALUES + ((field) >> 8 * (byte) & 0xFF)]
    return (int32_t)base
        ^ LOOKUP(0, pc, 0) ^ LOOKUP(1, pc, 1) ^ LOOKUP(2, pc, 2)
        ^ LOOKUP(3, pc, 3) ^ LOOKUP(4, pc, 4) ^ LOOKUP(5, pc, 5)
        ^ LOOKUP(6, pc, 6) ^ LOOKUP(7, pc, 7)
        ^ LOOKUP(8, value, 0) ^ LOOKUP(9, value, 1) ^ LOOKUP(10, value, 2)
        ^ LOOKUP(11, value, 3) ^ LOOKUP(12, value, 4)
        ^ LOOKUP(13, value, 5) ^ LOOKUP(14, value, 6)
        ^ LOOKUP(15, value, 7);
#undef LOOKUP
}

void repro_observe(repro_state *s, const uint64_t *pcs,
                   const uint64_t *values, int64_t n)
{
    /* A local copy, read once per call: a store through an int64_t
     * counter could alias any int64_t field of *s, so the fields would
     * otherwise be reloaded on every event.  Only the per-event helpers
     * (find, hit) see the copy; the rare paths (reindex, promote) take
     * *s, so that the copy does not escape. */
    const repro_state st = *s;
    const int64_t tables = st.num_tables;
    const int64_t threshold = st.threshold;
    const int64_t max_value = st.max_value;
    int64_t *indices = st.work;
    int64_t *before = st.work + tables;
    int64_t hits = 0, updates = 0;

    if (st.counts[COUNT_REINDEX])
        reindex(s);
    uint64_t hash = n > 0 ? slot_hash(st.seed, pcs[0], values[0]) : 0;
    for (int64_t i = 0; i < n; i++) {
        const uint64_t pc = pcs[i], value = values[i];
        /* The next event's slot hash, ahead of this event's branches:
         * a mispredicted one then does not delay it. */
        const int64_t ahead = i + 1 < n ? i + 1 : i;
        const uint64_t next = slot_hash(st.seed, pcs[ahead], values[ahead]);
        const int64_t entry = find(&st, hash, pc, value);
        hash = next;
        if (entry >= 0 && st.shielding) {
            hit(&st, entry);
            hits++;
            continue;
        }
        if (st.single) {
            int64_t *counter = st.counters[0]
                + table_index(st.folds[0], st.fold_base[0], pc, value);
            int64_t count = *counter + 1;
            if (count > max_value)
                count = max_value;
            *counter = count;
            updates++;
            if (count >= threshold && entry < 0
                    && promote(s, pc, value, count) && st.resetting)
                *counter = 0;
        } else {
            int64_t minimum = max_value, estimate = max_value;
            for (int64_t t = 0; t < tables; t++)
                indices[t] = table_index(st.folds[t], st.fold_base[t],
                                         pc, value);
            if (st.conservative) {
                for (int64_t t = 0; t < tables; t++) {
                    before[t] = st.counters[t][indices[t]];
                    if (before[t] < minimum)
                        minimum = before[t];
                }
                estimate = minimum + 1 > max_value ? max_value : minimum + 1;
                for (int64_t t = 0; t < tables; t++) {
                    if (before[t] == minimum) {
                        st.counters[t][indices[t]] = estimate;
                        updates++;
                    }
                }
            } else {
                for (int64_t t = 0; t < tables; t++) {
                    int64_t *counter = st.counters[t] + indices[t];
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
                    && promote(s, pc, value, estimate) && st.resetting) {
                for (int64_t t = 0; t < tables; t++)
                    st.counters[t][indices[t]] = 0;
            }
        }
        /* Without shielding a resident tuple is hashed and counted. */
        if (entry >= 0) {
            hit(&st, entry);
            hits++;
        }
    }
    st.counts[COUNT_EVENTS] += n;
    st.counts[COUNT_HITS] += hits;
    st.counts[COUNT_UPDATES] += updates;
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

/* The slot that holds the entry of (pc, value), or else the empty slot
 * that ends its probe chain. */
static inline uint64_t pair_position(const repro_pair_table *t,
                                     uint64_t pc, uint64_t value)
{
    const int32_t *slots = t->slots;
    const repro_pair *entries = t->entries;
    const uint64_t mask = (uint64_t)t->slot_mask;
    uint64_t position = slot_hash(t->seed, pc, value) & mask;
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
