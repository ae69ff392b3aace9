(** Hintikka formulas: the defining formulas of canonical types.

    For a [q]-type [θ] of arity [k] over a colour vocabulary [C], the
    Hintikka formula [hin_θ(x_1, ..., x_k)] has quantifier rank exactly
    [q] (when [q >= 1]) and satisfies, for every graph [G] over a colour
    vocabulary [⊆ C] and every [k]-tuple [v̄],

    {v G |= hin_θ(v̄)  iff  tp_q(G, v̄) = θ. v}

    This realises the paper's "types as finite sets of formulas in normal
    form": every quantifier-rank-[q] definable property is a finite union
    of [q]-types (Corollary 6-style), and the union of Hintikka formulas is
    the witness formula our ERM solvers output. *)

val variables : int -> Fo.Formula.var list
(** [variables k] = the standard variable names [x1; ...; xk]. *)

val formulas_built : Obs.Metric.counter
(** [modelcheck.hintikka.formulas_built]: one per call of {!of_type}
    and of {!Ctypes.hintikka}, plain and counting witnesses alike. *)

val atomic_formula :
  colors:string list -> Types.atomsig -> Fo.Formula.var list -> Fo.Formula.t
(** [atomic_formula ~colors sg vars]: the conjunction of the equality,
    edge and colour literals (positive and negative) that the atomic
    signature [sg] fixes for [vars], over the colour vocabulary
    [colors].  Shared by the plain and counting Hintikka builders.
    @raise Invalid_argument if [vars] does not match the arity of [sg]
    or [sg] mentions a colour outside [colors]. *)

val content_key :
  ('t -> Types.atomsig * ('t * int) list option) -> 't -> string
(** [content_key node] is a fresh key function over the types that
    [node] decomposes (atomic signature, children with multiplicities):
    equal types get equal keys, and a key never depends on intern ids,
    so not on the order types were computed in.  It memoises in a table of
    its own; make one per formula built. *)

val by_content : ('t -> string) -> 't list -> 't list
(** Sort by a {!content_key}.  Hintikka formulas list their children,
    and hypotheses their disjuncts, in this order. *)

val content_order : Types.ty list -> Types.ty list
(** [by_content] with a fresh key over plain types. *)

val of_type :
  ?vars:Fo.Formula.var list -> colors:string list -> Types.ty -> Fo.Formula.t
(** [of_type ~colors θ]: the Hintikka formula of [θ], relative to the
    given colour vocabulary (needed to spell out the {e negative} colour
    facts).  Its free variables are [vars] (default [variables (arity
    θ)]); the quantified variables are [x{m+1}], [x{m+2}], ... where
    [m] is the length of [vars].  Each distinct type is built once and
    shared; the guard fuel spent is that of the unshared tree, one
    [Hintikka_build] unit per node.
    @raise Invalid_argument if [θ] mentions a colour outside [colors]. *)

val of_types :
  ?vars:Fo.Formula.var list ->
  colors:string list ->
  Types.ty list ->
  Fo.Formula.t
(** Disjunction of Hintikka formulas, in {!content_order}: the formula
    defining "my [q]-type is one of these". *)

val of_tuple :
  colors:string list -> Cgraph.Graph.t -> q:int -> Cgraph.Graph.Tuple.t -> Fo.Formula.t
(** The rank-[q] Hintikka formula of a concrete tuple in a graph. *)
