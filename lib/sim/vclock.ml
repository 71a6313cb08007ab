(* A clock keeps its owner's component apart from all the others:

   - [own] ↦ [cnt] is the component of the fiber that last ticked the
     clock.  Every event a fiber emits ticks its own clock, so this is
     the hot write: one 4-word record, whatever the clock's width.
   - [rest] holds every other component in a big-endian Patricia trie
     over fiber ids (Okasaki & Gill, "Fast Mergeable Integer Maps",
     1998).  Merging two clocks is a trie union that skips physically
     shared subtrees and hands back an input unchanged when it already
     dominates, so its cost follows the entries that differ, not the
     width.

   Invariant: [find rest own <= cnt].  [rest] may keep a stale entry for
   the owner — no operation ever has to delete one — and the owner's
   counter is [cnt] regardless.  Trie leaves hold counters >= 1; [cnt = 0]
   means the owner has no entry (only [empty] and clocks merged from it).

   Width matters because LYNX runs every incoming request in a fresh
   coroutine: each one leaves a component behind in every clock
   downstream of it, so widths grow with how many threads ever ran. *)

type tree =
  | Empty
  | Leaf of int * int  (* fiber id, counter >= 1 *)
  | Br of int * int * tree * tree
      (* prefix (the key bits above the branching bit), branching bit
         (a single set bit), subtree whose keys have it clear, subtree
         whose keys have it set; neither subtree is [Empty] *)

type t = { own : int; cnt : int; rest : tree }

let empty = { own = -1; cnt = 0; rest = Empty }

let zero_bit k m = k land m = 0
let mask k m = k land lnot (m lor (m - 1))
let match_prefix k p m = mask k m = p

let highest_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  x land lnot (x lsr 1)

(* Branching bits compare as unsigned: the sign bit ranks highest. *)
let higher m n = m lxor min_int > n lxor min_int

let join p0 t0 p1 t1 =
  let m = highest_bit (p0 lxor p1) in
  if zero_bit p0 m then Br (mask p0 m, m, t0, t1) else Br (mask p0 m, m, t1, t0)

let rec find t k =
  match t with
  | Empty -> 0
  | Leaf (j, v) -> if j = k then v else 0
  | Br (_, m, t0, t1) -> find (if zero_bit k m then t0 else t1) k

(* [t] with [k]'s counter raised to at least [v >= 1]; [t] itself when it
   already is. *)
let rec raise_to t k v =
  match t with
  | Empty -> Leaf (k, v)
  | Leaf (j, w) ->
    if j = k then if w >= v then t else Leaf (k, v) else join k (Leaf (k, v)) j t
  | Br (p, m, t0, t1) ->
    if not (match_prefix k p m) then join k (Leaf (k, v)) p t
    else if zero_bit k m then
      let t0' = raise_to t0 k v in
      if t0' == t0 then t else Br (p, m, t0', t1)
    else
      let t1' = raise_to t1 k v in
      if t1' == t1 then t else Br (p, m, t0, t1')

(* Pointwise maximum.  Returns [s] itself when [s] dominates [t] (and [t]
   when [t] dominates [s]), so a merge that learns nothing allocates
   nothing, and shared subtrees are never entered. *)
let rec union s t =
  if s == t then s
  else
    match (s, t) with
    | Empty, _ -> t
    | _, Empty -> s
    | Leaf (k, v), Leaf (j, w) when k = j -> if v >= w then s else t
    | Leaf (k, v), _ -> raise_to t k v
    | _, Leaf (k, v) -> raise_to s k v
    | Br (p, m, s0, s1), Br (q, n, t0, t1) ->
      if m = n && p = q then
        let u0 = union s0 t0 and u1 = union s1 t1 in
        if u0 == s0 && u1 == s1 then s
        else if u0 == t0 && u1 == t1 then t
        else Br (p, m, u0, u1)
      else if higher m n && match_prefix q p m then
        if zero_bit q m then
          let u0 = union s0 t in
          if u0 == s0 then s else Br (p, m, u0, s1)
        else
          let u1 = union s1 t in
          if u1 == s1 then s else Br (p, m, s0, u1)
      else if higher n m && match_prefix p q n then
        if zero_bit p n then
          let u0 = union s t0 in
          if u0 == t0 then t else Br (q, n, u0, t1)
        else
          let u1 = union s t1 in
          if u1 == t1 then t else Br (q, n, t0, u1)
      else join p s q t

(* Every entry of [s] is at most the matching entry of [t] with key [ok]
   overridden by [ov], where [ov >= find t ok] — a clock's [rest] under
   its owner's counter.  Shared subtrees are skipped; where the two
   shapes disagree [s] is split, and since [t] then lacks keys of [s]
   (bar [ok]) the walk fails at one of its first two leaves. *)
let rec covered s t ok ov =
  s == t
  ||
  match s with
  | Empty -> true
  | Leaf (k, v) -> v <= (if k = ok then ov else find t k)
  | Br (p, m, s0, s1) -> (
    match t with
    | Br (q, n, t0, t1) when m = n && p = q ->
      covered s0 t0 ok ov && covered s1 t1 ok ov
    | Br (q, n, t0, t1) when higher n m && match_prefix p q n ->
      covered s (if zero_bit p n then t0 else t1) ok ov
    | _ -> covered s0 t ok ov && covered s1 t ok ov)

let get t i = if i = t.own then t.cnt else find t.rest i

let tick t i =
  if i = t.own then { t with cnt = t.cnt + 1 }
  else
    (* Re-own: the old owner's counter moves into [rest]. *)
    let rest = if t.cnt > 0 then raise_to t.rest t.own t.cnt else t.rest in
    { own = i; cnt = find rest i + 1; rest }

let merge a b =
  if a == b then a
  else
    let u = union a.rest b.rest in
    if a.own = b.own then
      let cnt = max a.cnt b.cnt in
      if u == a.rest && cnt = a.cnt then a
      else if u == b.rest && cnt = b.cnt then b
      else { own = a.own; cnt; rest = u }
    else
      (* [ga] is b's counter for a's owner, [gb] a's counter for b's. *)
      let ga = find b.rest a.own and gb = find a.rest b.own in
      if u == a.rest && ga <= a.cnt && gb >= b.cnt then a
      else if u == b.rest && gb <= b.cnt && ga >= a.cnt then b
      else
        {
          own = a.own;
          cnt = max a.cnt ga;
          rest = (if b.cnt > gb then raise_to u b.own b.cnt else u);
        }

let leq a b = a == b || (a.cnt <= get b a.own && covered a.rest b.rest b.own b.cnt)

let compare_causal a b =
  match (leq a b, leq b a) with
  | true, true -> `Equal
  | true, false -> `Before
  | false, true -> `After
  | false, false -> `Concurrent

let concurrent a b = compare_causal a b = `Concurrent

let to_string t =
  let b = Buffer.create 16 in
  let add k v =
    if Buffer.length b > 1 then Buffer.add_char b ' ';
    Buffer.add_string b (string_of_int k);
    Buffer.add_char b ':';
    Buffer.add_string b (string_of_int v)
  in
  (* The owner's entry goes in id order; its stale copy in [rest], if
     any, is skipped. *)
  let own_due = ref (t.cnt > 0) in
  let entry k v =
    if !own_due && t.own <= k then begin
      add t.own t.cnt;
      own_due := false
    end;
    if k <> t.own then add k v
  in
  let rec walk = function
    | Empty -> ()
    | Leaf (k, v) -> entry k v
    | Br (_, m, t0, t1) ->
      (* Under the sign bit the negative ids sit on the set side. *)
      if m < 0 then (walk t1; walk t0) else (walk t0; walk t1)
  in
  Buffer.add_char b '{';
  walk t.rest;
  if !own_due then add t.own t.cnt;
  Buffer.add_char b '}';
  Buffer.contents b
