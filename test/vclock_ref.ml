(* Reference vector clocks that the differential tests compare
   [Sim.Vclock] against: a sorted association list keyed by fiber id,
   absent entries zero.  Deliberately naive — every operation rebuilds
   or walks the whole clock — so that it is plainly the pointwise
   maximum and order it claims to be. *)

type t = (int * int) list

let empty = []

let rec get t i =
  match t with
  | [] -> 0
  | (j, n) :: rest -> if j = i then n else if j > i then 0 else get rest i

let rec tick t i =
  match t with
  | [] -> [ (i, 1) ]
  | ((j, n) as hd) :: rest ->
    if j = i then (j, n + 1) :: rest
    else if j > i then (i, 1) :: t
    else hd :: tick rest i

let rec merge a b =
  match (a, b) with
  | [], c | c, [] -> c
  | ((i, n) as ha) :: ra, ((j, m) as hb) :: rb ->
    if i = j then (i, max n m) :: merge ra rb
    else if i < j then ha :: merge ra b
    else hb :: merge a rb

let rec leq a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | (i, n) :: ra, (j, m) :: rb ->
    if i = j then n <= m && leq ra rb
    else if i > j then leq a rb
    else false

let compare_causal a b =
  match (leq a b, leq b a) with
  | true, true -> `Equal
  | true, false -> `Before
  | false, true -> `After
  | false, false -> `Concurrent

let to_string t =
  "{"
  ^ String.concat " " (List.map (fun (i, n) -> Printf.sprintf "%d:%d" i n) t)
  ^ "}"
