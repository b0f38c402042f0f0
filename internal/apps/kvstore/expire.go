package kvstore

import (
	"encoding/binary"
	"time"

	"phoenix/internal/mem"
	"phoenix/internal/simds"
)

// Key expiry, structured like Redis: a separate expires dictionary maps key
// → absolute simulated deadline. Expired keys are reclaimed lazily on access
// and proactively by the active expire cycle that runs between requests.
// The expires dictionary lives in the same preserved heap as the main
// dictionary, so TTLs survive a PHOENIX restart (deadlines are absolute
// simulated times and the machine clock is monotonic across restarts).

// Expire sets a TTL on an existing key. It reports whether the key exists.
func (kv *KV) Expire(key string, ttl time.Duration) bool {
	if _, ok := kv.dict.Get([]byte(key)); !ok {
		return false
	}
	deadline := kv.rt.Proc().Machine.Clock.Now() + ttl
	kv.rt.UnsafeBegin("kv")
	kv.expires.Set([]byte(key), uint64(deadline))
	kv.rt.UnsafeEnd("kv")
	return true
}

// TTL returns the remaining lifetime of key: (0, false) when the key has no
// expiry or does not exist.
func (kv *KV) TTL(key string) (time.Duration, bool) {
	dl, ok := kv.expires.Get([]byte(key))
	if !ok {
		return 0, false
	}
	now := kv.rt.Proc().Machine.Clock.Now()
	if time.Duration(dl) <= now {
		return 0, false
	}
	return time.Duration(dl) - now, true
}

// expired reports whether key has a deadline in the past.
func (kv *KV) expired(key string) bool {
	dl, ok := kv.expires.Get([]byte(key))
	return ok && time.Duration(dl) <= kv.rt.Proc().Machine.Clock.Now()
}

// reapExpired removes an expired key (lazy expiration on the access path).
func (kv *KV) reapExpired(key string) {
	kv.rt.UnsafeBegin("kv")
	if old, found := kv.dict.Delete([]byte(key)); found && old != 0 {
		kv.ctx.FreeBlob(mem.VAddr(old))
	}
	kv.expires.Delete([]byte(key))
	if kv.redo != nil {
		kv.redo.Append(encodeRedo('D', key, nil))
	}
	kv.rt.UnsafeEnd("kv")
	kv.stats.Expired++
}

// activeExpireCycle samples the expires dictionary and reaps any dead keys,
// Redis's serverCron-style background pass. It runs at most `budget` key
// checks per invocation.
func (kv *KV) activeExpireCycle(budget int) {
	if kv.expires.Len() == 0 {
		return
	}
	now := kv.rt.Proc().Machine.Clock.Now()
	var dead []string
	scan := true
	if kv.inj != nil {
		scan = kv.inj.Cond("kv.expire.scan", true)
	}
	if !scan {
		return // perturbed guard: the cycle silently does nothing
	}
	kv.expires.Iterate(func(key []byte, dl uint64) bool {
		budget--
		if time.Duration(dl) <= now {
			dead = append(dead, string(key))
		}
		return budget > 0
	})
	for _, k := range dead {
		kv.reapExpired(k)
	}
}

// appendExpires serialises the expires dict onto the RDB image.
func (kv *KV) appendExpires(buf []byte) []byte {
	kv.expires.Iterate(func(key []byte, dl uint64) bool {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
		buf = append(buf, key...)
		buf = binary.LittleEndian.AppendUint64(buf, dl)
		return true
	})
	return buf
}

// loadExpires rebuilds the expires dict from an RDB expiry section.
func (kv *KV) loadExpires(buf []byte) {
	for len(buf) >= 4 {
		n := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint32(len(buf)) < n+8 {
			return
		}
		key := string(buf[:n])
		dl := binary.LittleEndian.Uint64(buf[n : n+8])
		buf = buf[n+8:]
		kv.expires.Set([]byte(key), dl)
	}
}

// markExpires extends the cleanup traversal over the expires dictionary.
func (kv *KV) markExpires() {
	if kv.expires != nil {
		kv.expires.Mark(nil)
	}
}

// openExpires attaches or creates the expires dictionary during Main.
func (kv *KV) openExpires(recovered bool, root mem.VAddr) {
	if recovered && root != mem.NullPtr {
		kv.expires = simds.OpenDict(kv.ctx, root)
		return
	}
	kv.expires = simds.NewDict(kv.ctx, 64)
}
