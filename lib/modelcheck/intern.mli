(** Sharded hash-consing registry (shared by {!Types} and {!Ctypes}).

    One global table remains the single authority for id allocation —
    ids are dense, stable, and identical to a sequential run — but each
    domain keeps a private read shard ([Domain.DLS]), so the hot path
    (re-interning an already-known key) is a lock-free local hashtable
    hit.  A shard that falls behind catches up by replaying the
    published suffix of the global entry array: a lock-free merge,
    counted on [<prefix>.shard_merges].  Only genuinely new keys take
    the global mutex.

    The registry grows monotonically while in use; {!reset} reclaims it
    at a quiescent point (e.g. between fleet chunks).  The approximate
    footprint is exported on the [<prefix>.table_bytes] gauge. *)

module Make (C : sig
  type key

  val dummy : key
  (** Filler for unallocated entry slots; never returned. *)

  val prefix : string
  (** Metric name prefix, e.g. ["modelcheck.types.intern"]. *)

  val hash : key -> int
  (** Hash for both the global table and the shards; keys are compared
      with [( = )].  It must look at the whole key: keys that share a
      prefix (one atomic signature, many child sets) must not share a
      bucket. *)
end) : sig
  type key = C.key

  val intern : key -> int -> int
  (** [intern key rank] returns the canonical id for [key], allocating
      the next dense id on first sight.  Safe to call from any domain;
      lock-free when the key is already in the calling domain's shard. *)

  val rank : int -> int
  val key : int -> key
  (** Entry accessors; lock-free.
      @raise Invalid_argument on an id that is stale (from before a
      {!reset}) or was never allocated. *)

  type stats = { live : int  (** interned entries *); bytes : int }

  val stats : unit -> stats
  (** Current registry size; [bytes] is the same estimate the
      [<prefix>.table_bytes] gauge carries. *)

  val reset : unit -> unit
  (** Empty the registry and invalidate every domain's shard (via a
      global epoch — no cross-domain coordination needed).  All
      previously returned ids become stale.  The caller must guarantee
      quiescence: no concurrent [intern] calls and no live ids held
      across the reset.  Fleet calls this between chunks, whose results
      carry no type ids. *)
end
