(** Canonical first-order types [tp_q(G, ū)] and local types
    [ltp_{q,r}(G, ū)] (paper, Section 2).

    A [q]-type is represented canonically and hash-consed: the type of a
    tuple is its atomic signature together with the {e set} of
    [(q-1)]-types of its one-point extensions,

    {v tp_q(G, ū)  ~  (atp(G, ū), { tp_{q-1}(G, ūw) | w ∈ V(G) }) v}

    Two tuples (possibly in different graphs over comparable vocabularies)
    get the same id iff they are [q]-equivalent — cross-checked against the
    independent EF-game implementation in the tests.  Canonical ids make
    types usable as hash keys, which is what the ERM algorithms need, and
    make them comparable across the projected graphs of Lemma 16.

    Vocabulary convention: the atomic signature records the {e positive}
    colour facts only, so two graphs are compared as structures over the
    union of their colour vocabularies. *)

open Cgraph

type ty = private int
(** Canonical type id.  Equal ids = equal types (within one process). *)

val equal : ty -> ty -> bool
val compare : ty -> ty -> int
val hash : ty -> int
val pp : Format.formatter -> ty -> unit

val rank : ty -> int
(** The quantifier rank [q] this type was computed at. *)

val arity : ty -> int
(** Number of free variables [k] of the type. *)

(** {1 Computing types}

    A context belongs to one graph.  It answers a repeated [tp] or
    [ltp] call on the same tuple from its memo, and keeps the
    integer-coded atomic types of that graph ({!Coder}); reuse it across
    calls for the same graph.

    Accounting: every type computation — the call itself and each node
    [(q-d, ū·w̄)] of its extension tree, down to the rank-0 leaves —
    adds one to [modelcheck.types.tp_misses] and notes one
    [Guard.note_table_row] (one fuel unit).  The rows noted are the rows
    a memo of every computed [(rank, tuple)] pair would hold, but the
    context stores none of them: [tp_misses] and the guard's
    [table_rows] count type computations, not stored rows.  A memo
    answer counts as [tp_hits].  This is exactly what
    [Analysis.Plan] models; the one place it differs from such an
    all-rank memo is a call whose [(q, ū)] already occurred inside an
    earlier call's extension tree, which is computed and counted
    again. *)

type ctx

val make_ctx : Graph.t -> ctx

val graph : ctx -> Graph.t

val tp : ctx -> q:int -> Graph.Tuple.t -> ty
(** [tp ctx ~q ū = tp_q(G, ū)].  Cost: [Θ(n^q)] type computations
    for a tuple the context has not seen (only the top-level call is
    memoised), each rank-1 node spending [O(n + k·deg)] on its [n]
    leaves; keep [q] small.
    @raise Invalid_argument if [|ū| + q] exceeds what the
    atomic-type coder packs into an [int] (31 on a 64-bit host with at
    most three colour sets, one less per further factor of four). *)

val ltp : ctx -> q:int -> r:int -> Graph.Tuple.t -> ty
(** [ltp ctx ~q ~r ū = tp_q(N_r^G(ū), ū)]: the local [(q,r)]-type,
    computed in the induced neighbourhood graph.  Memoised. *)

val tp_graph : Graph.t -> q:int -> Graph.Tuple.t -> ty
(** One-shot [tp] without an explicit context. *)

val partition_by_tp : ctx -> q:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by their [q]-type; classes ordered by first occurrence. *)

val partition_by_ltp :
  ctx -> q:int -> r:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by their local [(q,r)]-type. *)

val count_types : Graph.t -> q:int -> k:int -> int
(** Number of distinct [q]-types of [k]-tuples realised in the graph
    (experiment E8 statistic). *)

(** {1 Structure access (for Hintikka formulas)} *)

type atomsig = {
  sig_arity : int;
  eqs : (int * int) list;  (** positions [i < j] with [u_i = u_j] *)
  edgs : (int * int) list;  (** positions [i < j] with an edge *)
  cols : string list array;  (** per position: sorted colours holding *)
}
(** Atomic signature of a tuple: the quantifier-free type. *)

val atomic_signature : Graph.t -> Graph.Tuple.t -> atomsig

val node : ty -> atomsig * ty list option
(** Decompose a canonical type: its atomic signature, and [None] for rank 0
    or [Some children] (sorted, distinct [(q-1)]-types of the one-point
    extensions) for rank [>= 1]. *)

(** {1 Integer-coded atomic types}

    The rank-0 layer shared by {!Types} and {!Ctypes}.  Within one
    graph, every atomic type met so far has a dense integer code.  The
    code of [ū·w] is found from the code of [ū], the bitmasks of the
    positions [i] with [u_i = w] and with [E(u_i, w)], and a per-graph
    colour-set id of [w], so a rank-1 node gets all [n] of its leaf
    codes from one scan of the neighbours of each [u_i].  Codes are
    local to a coder; a leaf's global type id comes from interning its
    {!atomsig} the first time its code appears.  A coder keeps the ids
    its [intern] argument returned, so each coder serves one
    registry. *)
module Coder : sig
  type t

  val make : Graph.t -> t

  val check_arity : t -> int -> unit
  (** @raise Invalid_argument if tuples of this arity would overflow
      the [int] the masks and colour-set id are packed into. *)

  val of_tuple : t -> Graph.Tuple.t -> int
  (** The code of a tuple's atomic type.
      @raise Graph.Invalid_vertex on a vertex outside the graph. *)

  val signature : t -> int -> atomsig

  val extend : t -> int -> Graph.Tuple.t -> int array -> unit
  (** [extend c p ū dst] sets [dst.(w)] to the code of [ū·w] for every
      vertex [w], where [p] is the code of [ū]. *)

  val leaf : t -> intern:(atomsig -> int) -> int -> int
  (** The rank-0 type id of a code; [intern] runs the first time the
      code is asked for. *)

  val leaves :
    t ->
    intern:(atomsig -> int) ->
    cap:int ->
    each:(unit -> unit) ->
    int ->
    Graph.Tuple.t ->
    (int * int) list
  (** [leaves c ~intern ~cap ~each p ū]: the distinct rank-0 type ids of
      [ū·w] over [w = 0 .. n-1], in order of first appearance, each
      with the number of [w] realising it capped at [cap].  [each]
      runs once per [w], before that leaf is resolved, and leaf types
      are interned in the order of [w]. *)
end

(** {1 Registry lifecycle}

    The hash-consing registry grows monotonically while in use (every
    distinct type ever interned stays live).  Long-running processes —
    the fleet worker in particular — reclaim it between work chunks. *)

type table_stats = { live : int  (** interned types *); bytes : int }

val table_stats : unit -> table_stats
(** Registry size; [bytes] is the estimate exported on the
    [modelcheck.types.table_bytes] gauge. *)

val reset_tables : unit -> unit
(** Empty the registry and invalidate all per-domain shards.  Every
    previously returned [ty] becomes stale (accessors raise).  Only
    call at a quiescent point with no live [ty] values — e.g. between
    fleet chunks, whose results carry only error counts. *)
