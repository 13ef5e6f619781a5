(** The statement harvester — the windowing step of Section 3.3.

    The recognizer slides a [block_bits]-wide window over every position
    of the trace bit-string, at each stride, decrypts it and keeps the
    windows that decode to valid residue statements.  This accumulator
    does that one bit at a time: each stride keeps one rolling window per
    chain of positions congruent modulo the stride, so a pushed bit costs
    O(strides) shifts and decrypts, never a re-read of the window.  Batch
    harvesting ({!Recombine.harvest}) folds it over a bit-string; the
    streaming recognizer pushes trace bits as the program runs.  Both see
    the same statements in the same order by construction. *)

type t

val default_strides : int list
(** [\[1; 2\]]: stride 1 for condition-generated pieces, stride 2 for
    loop-generated pieces whose payload bits interleave with the
    loop-control branch (see DESIGN.md). *)

val create : ?dedup_overlaps:bool -> ?strides:int list -> Params.t -> t
(** [strides] defaults to {!default_strides}; each must be positive.
    [dedup_overlaps] (default [true]) counts overlapping occurrences of one
    statement once — constant-bit runs from hot loops otherwise inflate
    its vote multiplicity (see DESIGN.md). *)

val push : t -> bool -> unit
(** Append one trace bit and harvest every window it completes.  The
    completed windows (one per stride, once the stride has seen a full
    block) are gathered in the caller's stride order and decrypted in
    pairs with {!Crypto.Feistel.decrypt2}: the first and second stride
    together, then the third and fourth, and so on; an odd window left
    over goes through {!Crypto.Feistel.decrypt}.  The plaintexts are then
    unenumerated and counted in that same stride order, so the statements,
    their order, the overlap dedup and {!count} are exactly those of
    decoding window by window with {!Statement.decode}. *)

val length : t -> int
(** Bits pushed so far. *)

val count : t -> int
(** Statements harvested so far (with multiplicity). *)

val statements : t -> Statement.t list
(** The harvested statements: the last stride's first, each stride's
    newest first — the order {!Recombine.recover}'s tie-breaks were
    measured with. *)
