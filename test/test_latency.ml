(* Calibration tests: every latency number the paper reports must come
   out of the simulation within a tolerance band.  These are the same
   measurements the bench harness prints; here they gate the test suite
   so a regression in any cost model or protocol path fails loudly. *)

let checkb = Alcotest.check Alcotest.bool

let within ~pct ~paper measured =
  Float.abs ((measured -. paper) /. paper) *. 100. <= pct

let check_band name ~pct ~paper measured =
  checkb
    (Printf.sprintf "%s: measured %.2f vs paper %.1f (±%.0f%%)" name measured
       paper pct)
    true
    (within ~pct ~paper measured)

let lynx_mean (module W : Harness.Backend_world.WORLD) payload =
  Harness.Rpc_bench.mean_ms (Harness.Rpc_bench.run (module W) ~payload ())

let tests =
  [
    Alcotest.test_case "§3.3 charlotte LYNX: 57 ms at 0 bytes" `Slow (fun () ->
        check_band "charlotte lynx 0B" ~pct:5. ~paper:57.
          (lynx_mean Harness.Backend_world.charlotte 0));
    Alcotest.test_case "§3.3 charlotte LYNX: 65 ms at 1000 bytes" `Slow
      (fun () ->
        check_band "charlotte lynx 1000B" ~pct:5. ~paper:65.
          (lynx_mean Harness.Backend_world.charlotte 1000));
    Alcotest.test_case "§3.3 charlotte raw kernel: 55 ms at 0 bytes" `Slow
      (fun () ->
        check_band "charlotte raw 0B" ~pct:5. ~paper:55.
          (Sim.Time.to_ms (Harness.Rpc_bench.raw_charlotte ~payload:0 ())));
    Alcotest.test_case "§3.3 charlotte raw kernel: 60 ms at 1000 bytes" `Slow
      (fun () ->
        check_band "charlotte raw 1000B" ~pct:5. ~paper:60.
          (Sim.Time.to_ms (Harness.Rpc_bench.raw_charlotte ~payload:1000 ())));
    Alcotest.test_case "§4.3 soda is ~3x faster than charlotte (small)" `Slow
      (fun () ->
        let c = Sim.Time.to_ms (Harness.Rpc_bench.raw_charlotte ~payload:0 ()) in
        let s = Sim.Time.to_ms (Harness.Rpc_bench.raw_soda ~payload:0 ()) in
        check_band "ratio" ~pct:10. ~paper:3.0 (c /. s));
    Alcotest.test_case "§4.3 fn2: crossover between 1K and 2K bytes" `Slow
      (fun () ->
        (* Find the payload where charlotte becomes cheaper than soda. *)
        let rec search lo hi =
          if hi - lo <= 128 then (lo, hi)
          else begin
            let mid = (lo + hi) / 2 in
            let c = lynx_mean Harness.Backend_world.charlotte mid in
            let s = lynx_mean Harness.Backend_world.soda mid in
            if s < c then search mid hi else search lo mid
          end
        in
        let lo, hi = search 512 3072 in
        checkb
          (Printf.sprintf "crossover in (%d, %d) within [1000, 2000]" lo hi)
          true
          (lo >= 1000 - 128 && hi <= 2000 + 128));
    Alcotest.test_case "§5.3 chrysalis LYNX: 2.4 ms at 0 bytes" `Slow
      (fun () ->
        check_band "chrysalis 0B" ~pct:5. ~paper:2.4
          (lynx_mean Harness.Backend_world.chrysalis 0));
    Alcotest.test_case "§5.3 chrysalis LYNX: 4.6 ms at 1000 bytes" `Slow
      (fun () ->
        check_band "chrysalis 1000B" ~pct:5. ~paper:4.6
          (lynx_mean Harness.Backend_world.chrysalis 1000));
    Alcotest.test_case "§5.3 chrysalis beats charlotte by >10x" `Slow
      (fun () ->
        let c = lynx_mean Harness.Backend_world.charlotte 0 in
        let b = lynx_mean Harness.Backend_world.chrysalis 0 in
        checkb
          (Printf.sprintf "ratio %.1f > 10" (c /. b))
          true
          (c /. b > 10.));
    Alcotest.test_case "X1: chrysalis pipelines, charlotte serializes" `Slow
      (fun () ->
        let tp b k =
          Harness.Rpc_bench.throughput ~coroutines:k b ~payload:0 ()
        in
        let c1 = tp Harness.Backend_world.chrysalis 1 in
        let c4 = tp Harness.Backend_world.chrysalis 4 in
        checkb
          (Printf.sprintf "chrysalis gains from concurrency (%.0f -> %.0f)" c1
             c4)
          true (c4 > c1 *. 2.);
        let h1 = tp Harness.Backend_world.charlotte 1 in
        let h4 = tp Harness.Backend_world.charlotte 4 in
        checkb
          (Printf.sprintf "charlotte stays serialized (%.1f -> %.1f)" h1 h4)
          true
          (h4 < h1 *. 1.5));
    Alcotest.test_case "latency measurements are deterministic" `Slow
      (fun () ->
        let a = lynx_mean Harness.Backend_world.charlotte 0 in
        let b = lynx_mean Harness.Backend_world.charlotte 0 in
        Alcotest.check (Alcotest.float 0.0001) "same" a b);
  ]

(* Host cost must not grow with thread churn.  LYNX runs every incoming
   request in a fresh coroutine, so a longer pipelined run has spawned
   more threads, each leaving a component in every vector clock
   downstream of it.  Words allocated per call at 4 x 160 calls must
   stay within 15% of 4 x 10 calls on every backend: with clocks whose
   per-event cost follows their width this grew 2.5x (Charlotte) to 6x
   (SODA).  Minor-heap words are exact at one domain; the fixed set-up
   cost of a run only makes the short run read higher. *)
let words_per_call b ~calls =
  let before = Gc.minor_words () in
  ignore (Harness.Rpc_bench.throughput ~coroutines:4 ~calls b ~payload:0 ());
  (Gc.minor_words () -. before) /. float_of_int (4 * calls)

let churn_tests =
  List.map
    (fun b ->
      let name = Harness.Backend_world.name b in
      Alcotest.test_case
        (Printf.sprintf "%s: words/call flat from 10 to 160 calls" name)
        `Quick (fun () ->
          let short = words_per_call b ~calls:10 in
          let long = words_per_call b ~calls:160 in
          checkb
            (Printf.sprintf "%.0f words/call at 160 calls vs %.0f at 10" long
               short)
            true
            (long <= short *. 1.15)))
    Harness.Backend_world.all

let () =
  Alcotest.run "latency" [ ("calibration", tests); ("churn", churn_tests) ]
