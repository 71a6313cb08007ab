(* Tests for the discrete-event simulation engine and its primitives. *)

open Sim

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ---- Time ---------------------------------------------------------------- *)

let time_tests =
  [
    Alcotest.test_case "units compose" `Quick (fun () ->
        checki "us" 1_000 (Time.to_ns (Time.us 1));
        checki "ms" 1_000_000 (Time.to_ns (Time.ms 1));
        checki "sec" 1_000_000_000 (Time.to_ns (Time.sec 1)));
    Alcotest.test_case "of_ms_float rounds" `Quick (fun () ->
        checki "1.5ms" 1_500_000 (Time.to_ns (Time.of_ms_float 1.5));
        checki "rounds" 1_000 (Time.to_ns (Time.of_us_float 1.0000001)));
    Alcotest.test_case "sub saturates at zero" `Quick (fun () ->
        checki "saturate" 0 (Time.to_ns (Time.sub (Time.ms 1) (Time.ms 2))));
    Alcotest.test_case "diff is absolute" `Quick (fun () ->
        checki "diff" 1_000_000
          (Time.to_ns (Time.diff (Time.ms 1) (Time.ms 2))));
    Alcotest.test_case "comparisons" `Quick (fun () ->
        checkb "lt" true Time.(Time.ms 1 < Time.ms 2);
        checkb "ge" true Time.(Time.ms 2 >= Time.ms 2);
        checki "max" (Time.to_ns (Time.ms 2))
          (Time.to_ns (Time.max (Time.ms 1) (Time.ms 2))));
    Alcotest.test_case "pp formats ms" `Quick (fun () ->
        check Alcotest.string "pp" "57.000ms" (Time.to_string (Time.ms 57)));
    Alcotest.test_case "scale and mul_float" `Quick (fun () ->
        checki "scale" 5_000 (Time.to_ns (Time.scale (Time.us 1) 5));
        checki "mul" 1_500 (Time.to_ns (Time.mul_float (Time.us 1) 1.5)));
  ]

(* ---- Heap ---------------------------------------------------------------- *)

let heap_tests =
  [
    Alcotest.test_case "orders by time" `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~time:30 ~seq:0 "c";
        Heap.add h ~time:10 ~seq:1 "a";
        Heap.add h ~time:20 ~seq:2 "b";
        let pop () =
          match Heap.pop h with Some (_, _, v) -> v | None -> "?"
        in
        let first = pop () in
        let second = pop () in
        let third = pop () in
        check Alcotest.(list string) "order" [ "a"; "b"; "c" ]
          [ first; second; third ]);
    Alcotest.test_case "seq breaks ties FIFO" `Quick (fun () ->
        let h = Heap.create () in
        for i = 0 to 9 do
          Heap.add h ~time:5 ~seq:i i
        done;
        let order = ref [] in
        let rec drain () =
          match Heap.pop h with
          | Some (_, _, v) ->
            order := v :: !order;
            drain ()
          | None -> ()
        in
        drain ();
        check Alcotest.(list int) "fifo" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
          (List.rev !order));
    Alcotest.test_case "empty pop" `Quick (fun () ->
        let h : unit Heap.t = Heap.create () in
        checkb "none" true (Heap.pop h = None);
        checkb "empty" true (Heap.is_empty h));
    Alcotest.test_case "peek_time" `Quick (fun () ->
        let h = Heap.create () in
        Heap.add h ~time:42 ~seq:0 ();
        checkb "peek" true (Heap.peek_time h = Some 42);
        ignore (Heap.pop h);
        checkb "peek empty" true (Heap.peek_time h = None));
    Alcotest.test_case "grows past initial capacity" `Quick (fun () ->
        let h = Heap.create () in
        for i = 0 to 999 do
          Heap.add h ~time:(1000 - i) ~seq:i i
        done;
        checki "len" 1000 (Heap.length h);
        match Heap.pop h with
        | Some (t, _, _) -> checki "min" 1 t
        | None -> Alcotest.fail "empty");
  ]

let heap_property =
  QCheck.Test.make ~name:"heap pops sorted" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun entries ->
      let h = Heap.create () in
      List.iteri (fun i (t, _) -> Heap.add h ~time:t ~seq:i i) entries;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, s, _) -> drain ((t, s) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let sorted = List.sort compare popped in
      popped = sorted)

(* Interleaved adds and pops checked against a sorted-list model: after
   any operation sequence the heap and the model agree on every pop,
   including pops taken while later adds are still to come.  [true] ops
   are adds (with a pseudo-random time), [false] ops are pops. *)
let heap_model_property =
  QCheck.Test.make ~name:"heap matches sorted-list model under add/pop mix"
    ~count:300
    QCheck.(list bool)
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun is_add ->
          if is_add then begin
            let time = !seq * 7919 mod 97 in
            Heap.add h ~time ~seq:!seq !seq;
            model := List.merge compare !model [ (time, !seq, !seq) ];
            incr seq
          end
          else begin
            (match (Heap.pop h, !model) with
            | None, [] -> ()
            | Some got, expect :: rest ->
              if got <> expect then ok := false;
              model := rest
            | Some _, [] | None, _ :: _ -> ok := false);
            if Heap.length h <> List.length !model then ok := false
          end)
        ops;
      !ok)

let heap_clear_tests =
  [
    Alcotest.test_case "clear empties and the heap stays usable" `Quick
      (fun () ->
        let h = Heap.create () in
        for i = 0 to 99 do
          Heap.add h ~time:i ~seq:i i
        done;
        Heap.clear h;
        checki "len" 0 (Heap.length h);
        checkb "empty pop" true (Heap.pop h = None);
        Heap.add h ~time:7 ~seq:0 42;
        checkb "reusable" true (Heap.pop h = Some (7, 0, 42)));
    Alcotest.test_case "clear releases payload references" `Quick (fun () ->
        (* A cleared heap must not pin its old payloads: the backing
           store is dropped, so a dead payload can be collected.  The
           weak pointer observes the payload disappearing. *)
        let h = Heap.create () in
        let w = Weak.create 1 in
        let () =
          let payload = ref 12345 in
          Weak.set w 0 (Some payload);
          Heap.add h ~time:1 ~seq:0 payload
        in
        Heap.clear h;
        Gc.full_major ();
        checkb "payload collected after clear" true (Weak.check w 0 = false));
    Alcotest.test_case "pop releases payload references" `Quick (fun () ->
        (* Popping must not leave the entry in the vacated slot: with the
           queue still alive (and reused afterwards), every popped
           payload must be collectable. *)
        let h = Heap.create () in
        let w = Weak.create 3 in
        let fill () =
          for i = 0 to 2 do
            let payload = ref i in
            Weak.set w i (Some payload);
            Heap.add h ~time:i ~seq:i payload
          done
        in
        let drain () =
          while Heap.pop h <> None do
            ()
          done
        in
        fill ();
        drain ();
        Gc.full_major ();
        for i = 0 to 2 do
          checkb "payload collected after pop" true (Weak.check w i = false)
        done;
        Heap.add h ~time:9 ~seq:9 (ref 9);
        checki "queue still usable" 1 (Heap.length h));
    Alcotest.test_case "task queue pop releases task closures" `Quick
      (fun () ->
        (* Same for the engine's task queue: the entry holds the task
           closure and the enqueuer's clock. *)
        let q = Taskq.create () in
        let w = Weak.create 3 in
        let fill () =
          for i = 0 to 2 do
            let payload = ref i in
            Weak.set w i (Some payload);
            Taskq.add q ~time:i ~seq:i ~clk:Vclock.empty (fun () ->
                incr payload)
          done
        in
        let drain () =
          let rec go () =
            match Taskq.pop q with
            | Some e ->
              e.Taskq.fn ();
              go ()
            | None -> ()
          in
          go ()
        in
        fill ();
        drain ();
        Gc.full_major ();
        for i = 0 to 2 do
          checkb "closure payload collected after pop" true
            (Weak.check w i = false)
        done;
        Taskq.add q ~time:9 ~seq:9 ~clk:Vclock.empty ignore;
        checki "queue still usable" 1 (Taskq.length q))
  ]

(* ---- structured event log: array representation ----------------------- *)

let event_log_tests =
  [
    Alcotest.test_case "events snapshot is shared, not re-copied" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore (Engine.spawn e (fun () -> Engine.sleep e (Time.ms 1)));
        Engine.run e;
        checkb "physically shared" true (Engine.events e == Engine.events e));
    Alcotest.test_case "append after a snapshot leaves it intact" `Quick
      (fun () ->
        let e = Engine.create () in
        Engine.record e "one";
        let snap = Engine.events e in
        let n = Array.length snap in
        Engine.record e "two";
        checki "snapshot untouched" n (Array.length snap);
        checki "log advanced" (n + 1) (Array.length (Engine.events e)));
    Alcotest.test_case "iter_events walks the same stream" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 5 do
                 Engine.sleep e (Time.ms 1)
               done));
        Engine.run e;
        let seen = ref [] in
        Engine.iter_events e (fun ev -> seen := ev :: !seen);
        checkb "same events in order" true
          (List.rev !seen = Array.to_list (Engine.events e)));
    Alcotest.test_case "legacy_trace:false keeps events and hash" `Quick
      (fun () ->
        let run ~legacy_trace =
          let e = Engine.create ~legacy_trace () in
          ignore
            (Engine.spawn e ~name:"w" (fun () ->
                 Engine.sleep e (Time.ms 2);
                 Engine.record e "mid";
                 Engine.sleep e (Time.ms 3)));
          Engine.run e;
          e
        in
        let on = run ~legacy_trace:true in
        let off = run ~legacy_trace:false in
        checkb "same fingerprint" true
          (Int64.equal (Engine.events_hash on) (Engine.events_hash off));
        checkb "same structured events" true
          (Engine.events on = Engine.events off);
        checki "no legacy trace rendered" 0
          (Engine.view off).Engine.v_trace_count);
    Alcotest.test_case "event capacity drops with O(1) accounting" `Quick
      (fun () ->
        let e = Engine.create ~event_capacity:4 () in
        for i = 1 to 10 do
          Engine.record e (string_of_int i)
        done;
        checki "kept" 4 (Array.length (Engine.events e));
        checki "dropped" 6 (Engine.events_dropped e));
    Alcotest.test_case
      "ring capacities 0/1/k/length keep the last k, hash exact" `Quick
      (fun () ->
        (* The same program at every capacity: the retained window is
           the stream's tail, and the fingerprint, total and drop
           accounting never depend on how much was kept. *)
        let program ?log_capacity () =
          let e = Engine.create ?log_capacity () in
          ignore
            (Engine.spawn e ~name:"w" (fun () ->
                 for i = 1 to 10 do
                   Engine.record e (Printf.sprintf "n%d" i);
                   Engine.sleep e (Time.ms 1)
                 done));
          Engine.run e;
          e
        in
        let full = program () in
        let all = Array.to_list (Array.map Event.describe (Engine.events full)) in
        let total = Engine.events_total full in
        checki "no drops unbounded" 0 (Engine.events_dropped full);
        checkb "stream wraps the small rings" true (total > 8);
        List.iter
          (fun k ->
            let e = program ~log_capacity:k () in
            let kept =
              Array.to_list (Array.map Event.describe (Engine.events e))
            in
            let keep = min k total in
            let expect =
              List.filteri (fun i _ -> i >= total - keep) all
            in
            checkb
              (Printf.sprintf "capacity %d keeps the tail" k)
              true (kept = expect);
            checkb
              (Printf.sprintf "capacity %d same fingerprint" k)
              true
              (Int64.equal (Engine.events_hash full) (Engine.events_hash e));
            checki
              (Printf.sprintf "capacity %d total" k)
              total (Engine.events_total e);
            checki
              (Printf.sprintf "capacity %d dropped" k)
              (total - keep) (Engine.events_dropped e);
            let seen = ref [] in
            Engine.iter_events e (fun ev ->
                seen := Event.describe ev :: !seen);
            checkb
              (Printf.sprintf "capacity %d iter agrees" k)
              true
              (List.rev !seen = kept))
          [ 0; 1; 5; total; total + 7 ]);
    Alcotest.test_case "consumers see every event at any capacity" `Quick
      (fun () ->
        let e = Engine.create ~log_capacity:2 () in
        let fed = ref [] in
        Engine.add_consumer e (fun ev -> fed := Event.describe ev :: !fed);
        for i = 1 to 9 do
          Engine.record e (string_of_int i)
        done;
        checki "ring bounded" 2 (Array.length (Engine.events e));
        checki "consumer saw the full stream" 9 (List.length !fed);
        checki "total exact" 9 (Engine.events_total e));
    Alcotest.test_case "ring snapshots never alias the ring storage" `Quick
      (fun () ->
        let e = Engine.create ~log_capacity:4 () in
        for i = 1 to 6 do
          Engine.record e (string_of_int i)
        done;
        let a = Engine.events e and b = Engine.events e in
        checkb "fresh array per call" false (a == b);
        checkb "equal contents" true (a = b);
        (* Later emission must not reach into a returned snapshot. *)
        let before = Array.map Event.describe a in
        for i = 7 to 12 do
          Engine.record e (string_of_int i)
        done;
        checkb "snapshot untouched by wraparound" true
          (before = Array.map Event.describe a));
    Alcotest.test_case
      "append-mode snapshot after new events is a fresh array" `Quick
      (fun () ->
        let e = Engine.create () in
        Engine.record e "one";
        let s1 = Engine.events e in
        Engine.record e "two";
        let s2 = Engine.events e in
        checkb "second call returns a fresh array" false (s1 == s2);
        checki "old snapshot keeps its length" 1 (Array.length s1);
        checki "new snapshot sees both" 2 (Array.length s2);
        checkb "quiescent calls share again" true (s2 == Engine.events e));
    Alcotest.test_case "with_observer bounds and attaches ambiently" `Quick
      (fun () ->
        let attached = ref 0 in
        Engine.with_observer ~log_capacity:3
          ~attach:(fun _ -> incr attached)
          (fun () ->
            let e = Engine.create () in
            for i = 1 to 8 do
              Engine.record e (string_of_int i)
            done;
            checki "ambient capacity adopted" 3
              (Array.length (Engine.events e));
            (* An explicit capacity wins over the ambient one. *)
            let e' = Engine.create ~log_capacity:5 () in
            for i = 1 to 8 do
              Engine.record e' (string_of_int i)
            done;
            checki "explicit capacity wins" 5
              (Array.length (Engine.events e'));
            checki "both engines attached" 2 !attached);
        let e = Engine.create () in
        for i = 1 to 8 do
          Engine.record e (string_of_int i)
        done;
        checki "observer scope restored" 8 (Array.length (Engine.events e));
        checki "no further attach" 2 !attached);
  ]

let rng_property =
  QCheck.Test.make ~name:"Rng.int stays within any positive bound" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int r bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* ---- stackless fibers ---------------------------------------------------- *)

(* One program written twice, as effect fibers and as step programs: a
   producer feeding a one-slot mailbox on timers, a consumer that
   blocks on it and spawns a child at the end, a crasher, a fiber
   woken with an error (twice: the second firing must be ignored) and
   one that is never woken.  Both must emit the same stream, clocks
   included, and report the same blocked set and crashes. *)
let mailbox () =
  let box = Queue.create () and waiting = ref None in
  let put v =
    match !waiting with
    | Some w ->
      waiting := None;
      w (Ok v)
    | None -> Queue.add v box
  in
  let await register = waiting := Some register in
  (box, put, await)

let fire_twice t w =
  Engine.schedule_after t (Time.us 3) (fun () ->
      w (Error Exit);
      w (Ok ()))

let program_fibers t =
  let box, put, await = mailbox () in
  ignore
    (Engine.spawn t ~name:"producer" (fun () ->
         for i = 1 to 3 do
           Engine.sleep t (Time.us (10 * i));
           Engine.record t (Printf.sprintf "put %d" i);
           put i
         done));
  ignore
    (Engine.spawn t ~name:"consumer" (fun () ->
         for _ = 1 to 3 do
           let v =
             if Queue.is_empty box then Engine.suspend t ~reason:"mbox" await
             else Queue.pop box
           in
           Engine.record t (Printf.sprintf "got %d" v)
         done;
         ignore
           (Engine.spawn t ~name:"child" (fun () -> Engine.sleep t (Time.us 1)))));
  ignore
    (Engine.spawn t ~name:"crasher" (fun () ->
         Engine.sleep t (Time.us 5);
         failwith "boom"));
  ignore
    (Engine.spawn t ~name:"erred" (fun () ->
         Engine.suspend t ~reason:"err" (fire_twice t);
         Engine.record t "erred resumed"));
  ignore (Engine.spawn t ~name:"stuck" (fun () -> Engine.suspend t ~reason:"forever" ignore))

let program_steps t =
  let box, put, await = mailbox () in
  ignore
    (Engine.spawn_steps t ~name:"producer" (fun () ->
         let rec go i =
           if i <= 3 then
             Engine.sleep_then t (Time.us (10 * i)) (fun () ->
                 Engine.record t (Printf.sprintf "put %d" i);
                 put i;
                 go (i + 1))
         in
         go 1));
  ignore
    (Engine.spawn_steps t ~name:"consumer" (fun () ->
         let rec go n =
           if n < 3 then begin
             let got v =
               Engine.record t (Printf.sprintf "got %d" v);
               go (n + 1)
             in
             if Queue.is_empty box then
               Engine.suspend_then t ~reason:"mbox" await got
             else got (Queue.pop box)
           end
           else
             ignore
               (Engine.spawn_steps t ~name:"child" (fun () ->
                    Engine.sleep_then t (Time.us 1) ignore))
         in
         go 0));
  ignore
    (Engine.spawn_steps t ~name:"crasher" (fun () ->
         Engine.sleep_then t (Time.us 5) (fun () -> failwith "boom")));
  ignore
    (Engine.spawn_steps t ~name:"erred" (fun () ->
         Engine.suspend_then t ~reason:"err" (fire_twice t) (fun () ->
             Engine.record t "erred resumed")));
  ignore
    (Engine.spawn_steps t ~name:"stuck" (fun () ->
         Engine.suspend_then t ~reason:"forever" ignore ignore))

let observe program =
  let t = Engine.create ~seed:5 ~on_crash:`Record () in
  program t;
  let deadlock =
    match Engine.run ~expect_quiescent:true t with
    | () -> "none"
    | exception Engine.Deadlock msg -> msg
  in
  let described = Buffer.create 1024 in
  Engine.iter_events t (fun ev ->
      Buffer.add_string described (Event.describe ev);
      Buffer.add_char described '\n');
  let crashes =
    List.map (fun (n, e) -> n ^ ": " ^ Printexc.to_string e) (Engine.crashed t)
  in
  let raised =
    let t = Engine.create ~seed:5 () in
    program t;
    match Engine.run t with
    | () -> "none"
    | exception Engine.Fiber_crash (n, e) -> n ^ ": " ^ Printexc.to_string e
  in
  List.iter
    (fun fi ->
      Buffer.add_string described
        (Printf.sprintf "#%d %s %s\n" fi.Engine.fi_id fi.Engine.fi_name
           fi.Engine.fi_state))
    (Engine.view t).Engine.v_fibers;
  ( Buffer.contents described,
    Engine.events_hash t,
    Engine.blocked_fibers t,
    deadlock,
    crashes,
    raised )

let stackless_tests =
  [
    Alcotest.test_case "step program = fiber program" `Quick (fun () ->
        let d1, h1, b1, dl1, c1, r1 = observe program_fibers in
        let d2, h2, b2, dl2, c2, r2 = observe program_steps in
        checkb "the program ran" true (String.length d1 > 0);
        check Alcotest.string "Event.describe (clocks included), fiber states" d1 d2;
        check Alcotest.int64 "events hash" h1 h2;
        check Alcotest.(list string) "blocked fibers" [ "stuck (forever)" ] b1;
        check Alcotest.(list string) "same blocked fibers" b1 b2;
        check Alcotest.string "deadlock text" "stuck (forever)" dl1;
        check Alcotest.string "same deadlock text" dl1 dl2;
        check Alcotest.(list string) "crashes"
          [ "erred: Stdlib.Exit"; "crasher: Failure(\"boom\")" ] c1;
        check Alcotest.(list string) "same crash report" c1 c2;
        check Alcotest.string "same raised crash" r1 r2);
    Alcotest.test_case "steps outside a fiber are rejected" `Quick (fun () ->
        let t = Engine.create () in
        Alcotest.check_raises "sleep_then"
          (Invalid_argument "Engine.sleep_then: not inside a fiber") (fun () ->
            Engine.sleep_then t (Time.us 1) ignore));
    Alcotest.test_case "release finishes every parked fiber" `Quick (fun () ->
        let finalized = ref 0 and delivered = ref 0 and caught = ref 0 in
        for _ = 1 to 1_000 do
          let t = Engine.create ~on_crash:`Record ~legacy_trace:false () in
          for i = 1 to 10 do
            ignore
              (Engine.spawn t (fun () ->
                   Fun.protect
                     ~finally:(fun () -> incr finalized)
                     (fun () ->
                       if i = 10 then
                         (* Cleanup that parks again is discontinued
                            again on the next pass. *)
                         try Engine.suspend t ~reason:"never" ignore
                         with _ ->
                           incr caught;
                           Engine.suspend t ~reason:"again" ignore
                       else Engine.suspend t ~reason:"never" ignore)))
          done;
          (* A sleep the run ends before: its timer task is still
             queued when the engine is released. *)
          ignore
            (Engine.spawn t (fun () ->
                 Fun.protect
                   ~finally:(fun () -> incr finalized)
                   (fun () -> Engine.sleep t (Time.sec 1))));
          Engine.add_consumer t (fun _ -> incr delivered);
          Engine.run_until t (Time.ms 1);
          checki "all parked" 11 (List.length (Engine.blocked_fibers t));
          checki "the consumer saw the run" 11 !delivered;
          delivered := 0;
          Engine.release t;
          checki "no consumer call during release" 0 !delivered;
          checki "none parked" 0 (List.length (Engine.blocked_fibers t));
          checkb "no crash recorded" true (Engine.crashed t = []);
          Engine.iter_events t (fun ev ->
              match ev.Event.ev_kind with
              | Event.Crash _ -> Alcotest.fail "release emitted a Crash"
              | _ -> ())
        done;
        checki "every finally ran" 11_000 !finalized;
        checki "every re-park was released" 1_000 !caught);
  ]

(* ---- Rng ------------------------------------------------------------------ *)

(* The parent stream pinned bit for bit: the generator's state moved
   from a boxed int64 field into unboxed bytes, and every draw must come
   out as before. *)
let rng_golden_tests =
  [
    Alcotest.test_case "draws pinned" `Quick (fun () ->
        let r = Rng.create 7 in
        check Alcotest.(list int) "int"
          [ 0; 630; 71; 1283; 528; 3405 ]
          (List.init 6 (fun i -> Rng.int r (1 + (i * 1000))));
        check Alcotest.(list int) "int near max_int"
          [ 1837650613971445849; 2788674721754994468; 3741924115167934521 ]
          (List.init 3 (fun _ -> Rng.int r max_int));
        check Alcotest.(list string) "float"
          [ "0x1.6650ef5667a58p-4"; "0x1.d327c95c6cbp-1";
            "0x1.5c87d83edafc8p-3"; "0x1.fcf2f9f0ec9f7p-1" ]
          (List.init 4 (fun _ -> Printf.sprintf "%h" (Rng.float r)));
        check Alcotest.(list bool) "bool"
          [ false; true; false; false; false; true; true; false ]
          (List.init 8 (fun _ -> Rng.bool r 0.5));
        let d = Rng.derive r 3 in
        check Alcotest.(list int64) "derive"
          [ 388616433601973310L; 7261577189598731091L; 160650668372339889L ]
          (List.init 3 (fun _ -> Rng.next_int64 d));
        let c = Rng.split r in
        check Alcotest.(list int64) "split"
          [ -3391111664787742676L; 3823998114459090705L; 4523347727612846070L ]
          (List.init 3 (fun _ -> Rng.next_int64 c));
        check Alcotest.int64 "parent after split" (-496891834054288698L)
          (Rng.next_int64 r);
        let a = Array.init 10 Fun.id in
        Rng.shuffle r a;
        check Alcotest.(array int) "shuffle" [| 0; 9; 6; 5; 4; 8; 1; 7; 3; 2 |] a);
    Alcotest.test_case "int allocates nothing" `Quick (fun () ->
        let r = Rng.create 3 in
        ignore (Rng.int r 100);
        let w0 = Gc.minor_words () in
        let acc = ref 0 in
        for _ = 1 to 100_000 do
          acc := !acc + Rng.int r 1000
        done;
        let words = Gc.minor_words () -. w0 in
        checkb "drew" true (!acc > 0);
        if words > 0. then
          Alcotest.failf "Rng.int allocated %.0f words over 100K draws" words);
  ]

let rng_tests =
  [
    Alcotest.test_case "deterministic from seed" `Quick (fun () ->
        let a = Rng.create 7 and b = Rng.create 7 in
        for _ = 1 to 100 do
          checkb "same" true (Rng.next_int64 a = Rng.next_int64 b)
        done);
    Alcotest.test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create 1 and b = Rng.create 2 in
        checkb "differ" false (Rng.next_int64 a = Rng.next_int64 b));
    Alcotest.test_case "int respects bound" `Quick (fun () ->
        let r = Rng.create 3 in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          checkb "in range" true (v >= 0 && v < 17)
        done);
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let r = Rng.create 4 in
        for _ = 1 to 1000 do
          let f = Rng.float r in
          checkb "in range" true (f >= 0. && f < 1.)
        done);
    Alcotest.test_case "split is independent" `Quick (fun () ->
        let a = Rng.create 5 in
        let child = Rng.split a in
        checkb "differ" false (Rng.next_int64 a = Rng.next_int64 child));
    Alcotest.test_case "bool probability roughly respected" `Quick (fun () ->
        let r = Rng.create 6 in
        let hits = ref 0 in
        for _ = 1 to 10_000 do
          if Rng.bool r 0.25 then incr hits
        done;
        checkb "rough" true (!hits > 2_000 && !hits < 3_000));
    Alcotest.test_case "int near max_int is unbiased (rejection sampling)"
      `Quick (fun () ->
        (* With bound = 3 * 2^60 and 62-bit draws, plain modulo reduction
           would hit the low quarter of the range with probability 1/2
           instead of 1/3 — the bias the rejection loop removes. *)
        let bound = (max_int / 4) * 3 in
        let low_cut = bound / 3 in
        let r = Rng.create 9 in
        let n = 50_000 in
        let low = ref 0 in
        for _ = 1 to n do
          let v = Rng.int r bound in
          checkb "in range" true (v >= 0 && v < bound);
          if v < low_cut then incr low
        done;
        let frac = float_of_int !low /. float_of_int n in
        checkb
          (Printf.sprintf "low-quarter fraction %.4f within [0.30,0.37]" frac)
          true
          (frac > 0.30 && frac < 0.37));
    Alcotest.test_case "int small-bound uniformity" `Quick (fun () ->
        let r = Rng.create 10 in
        let buckets = Array.make 8 0 in
        let n = 80_000 in
        for _ = 1 to n do
          let v = Rng.int r 8 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iteri
          (fun i c ->
            (* Expected 10_000 per bucket; allow 5%. *)
            checkb
              (Printf.sprintf "bucket %d count %d within 5%%" i c)
              true
              (c > 9_500 && c < 10_500))
          buckets);
    Alcotest.test_case "int rejects non-positive bounds" `Quick (fun () ->
        let r = Rng.create 11 in
        checkb "zero" true
          (match Rng.int r 0 with
          | _ -> false
          | exception Invalid_argument _ -> true);
        checkb "negative" true
          (match Rng.int r (-3) with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "split streams are independent and uniform" `Quick
      (fun () ->
        let parent = Rng.create 12 in
        let child = Rng.split parent in
        (* Determinism: splitting an identically seeded parent again
           yields the same child stream. *)
        let parent' = Rng.create 12 in
        let child' = Rng.split parent' in
        for _ = 1 to 100 do
          checkb "same child stream" true
            (Rng.next_int64 child = Rng.next_int64 child')
        done;
        (* Independence: parent and child streams disagree and stay
           individually uniform; their agreement rate on a coarse bucket
           is near chance. *)
        let n = 20_000 in
        let agree = ref 0 in
        let p_buckets = Array.make 4 0 and c_buckets = Array.make 4 0 in
        for _ = 1 to n do
          let pv = Rng.int parent 4 and cv = Rng.int child 4 in
          p_buckets.(pv) <- p_buckets.(pv) + 1;
          c_buckets.(cv) <- c_buckets.(cv) + 1;
          if pv = cv then incr agree
        done;
        let agree_frac = float_of_int !agree /. float_of_int n in
        checkb
          (Printf.sprintf "agreement %.4f near 0.25" agree_frac)
          true
          (agree_frac > 0.22 && agree_frac < 0.28);
        Array.iter
          (fun c -> checkb "parent uniform" true (c > 4_600 && c < 5_400))
          p_buckets;
        Array.iter
          (fun c -> checkb "child uniform" true (c > 4_600 && c < 5_400))
          c_buckets);
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let r = Rng.create 8 in
        let arr = Array.init 20 Fun.id in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort compare sorted;
        check Alcotest.(array int) "same elements" (Array.init 20 Fun.id) sorted);
  ]

(* ---- Trace ----------------------------------------------------------------- *)

let trace_tests =
  [
    Alcotest.test_case "hash is order sensitive" `Quick (fun () ->
        let a = Trace.create () and b = Trace.create () in
        Trace.record a Time.zero "x";
        Trace.record a Time.zero "y";
        Trace.record b Time.zero "y";
        Trace.record b Time.zero "x";
        checkb "differ" false (Trace.hash a = Trace.hash b));
    Alcotest.test_case "hash covers evicted events" `Quick (fun () ->
        let a = Trace.create ~capacity:4 () and b = Trace.create ~capacity:4 () in
        for i = 1 to 20 do
          Trace.record a Time.zero (string_of_int i)
        done;
        for i = 1 to 20 do
          Trace.record b Time.zero (string_of_int (if i = 1 then 99 else i))
        done;
        checkb "differ" false (Trace.hash a = Trace.hash b));
    Alcotest.test_case "recent returns newest window" `Quick (fun () ->
        let t = Trace.create ~capacity:3 () in
        List.iter (fun s -> Trace.record t Time.zero s) [ "a"; "b"; "c"; "d" ];
        check
          Alcotest.(list string)
          "window" [ "c"; "d" ]
          (List.map snd (Trace.recent t 2));
        checki "count" 4 (Trace.count t));
    Alcotest.test_case "clear resets" `Quick (fun () ->
        let t = Trace.create () in
        let h0 = Trace.hash t in
        Trace.record t Time.zero "x";
        Trace.clear t;
        checki "count" 0 (Trace.count t);
        checkb "hash reset" true (Trace.hash t = h0));
  ]

(* ---- Engine ----------------------------------------------------------------- *)

let engine_tests =
  [
    Alcotest.test_case "sleep advances virtual time" `Quick (fun () ->
        let e = Engine.create () in
        let final = ref Time.zero in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 5);
               Engine.sleep e (Time.ms 7);
               final := Engine.now e));
        Engine.run e ~expect_quiescent:true;
        checki "12ms" (Time.to_ns (Time.ms 12)) (Time.to_ns !final));
    Alcotest.test_case "same-time tasks run in schedule order" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        for i = 1 to 5 do
          Engine.schedule_at e Time.zero (fun () -> order := i :: !order)
        done;
        Engine.run e;
        check Alcotest.(list int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order));
    Alcotest.test_case "schedule in the past rejected" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               Alcotest.check_raises "past" (Invalid_argument
                 "Engine.schedule_at: time is in the past") (fun () ->
                   Engine.schedule_at e Time.zero ignore)));
        Engine.run e);
    Alcotest.test_case "spawned fibers interleave deterministically" `Quick
      (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        let worker name d =
          ignore
            (Engine.spawn e ~name (fun () ->
                 for i = 1 to 3 do
                   Engine.sleep e d;
                   log := (name, i) :: !log
                 done))
        in
        worker "a" (Time.ms 2);
        worker "b" (Time.ms 3);
        Engine.run e;
        check
          Alcotest.(list (pair string int))
          "interleave"
          [ ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("a", 3); ("b", 3) ]
          (List.rev !log));
    Alcotest.test_case "run_until stops at limit" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 10 do
                 Engine.sleep e (Time.ms 10);
                 incr count
               done));
        Engine.run_until e (Time.ms 35);
        checki "3 iterations" 3 !count;
        checki "clock at limit" (Time.to_ns (Time.ms 35))
          (Time.to_ns (Engine.now e)));
    Alcotest.test_case "deadlock detected when quiescence expected" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"stuck" (fun () ->
               ignore (Engine.suspend e (fun _waker -> ()))));
        checkb "raises" true
          (match Engine.run e ~expect_quiescent:true with
          | () -> false
          | exception Engine.Deadlock _ -> true));
    Alcotest.test_case "daemon fibers excluded from quiescence" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~daemon:true (fun () ->
               ignore (Engine.suspend e (fun _ -> ()))));
        Engine.run e ~expect_quiescent:true);
    Alcotest.test_case "fiber crash raises by default" `Quick (fun () ->
        let e = Engine.create () in
        ignore (Engine.spawn e ~name:"boom" (fun () -> failwith "bang"));
        checkb "raises" true
          (match Engine.run e with
          | () -> false
          | exception Engine.Fiber_crash ("boom", Failure _) -> true
          | exception _ -> false));
    Alcotest.test_case "fiber crash recorded when requested" `Quick (fun () ->
        let e = Engine.create ~on_crash:`Record () in
        ignore (Engine.spawn e ~name:"boom" (fun () -> failwith "bang"));
        Engine.run e;
        match Engine.crashed e with
        | [ ("boom", Failure _) ] -> ()
        | _ -> Alcotest.fail "crash not recorded");
    Alcotest.test_case "waker is idempotent" `Quick (fun () ->
        let e = Engine.create () in
        let resumed = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               Engine.suspend e (fun waker ->
                   Engine.schedule_after e (Time.ms 1) (fun () ->
                       waker (Ok ());
                       waker (Ok ());
                       waker (Error Exit)));
               incr resumed));
        Engine.run e;
        checki "once" 1 !resumed);
    Alcotest.test_case "waker can deliver exception" `Quick (fun () ->
        let e = Engine.create () in
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try
                 Engine.suspend e (fun waker ->
                     Engine.schedule_after e (Time.ms 1) (fun () ->
                         waker (Error Not_found)))
               with Not_found -> caught := true));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "yield lets same-time work run" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore
          (Engine.spawn e (fun () ->
               log := "a1" :: !log;
               Engine.yield e;
               log := "a2" :: !log));
        ignore (Engine.spawn e (fun () -> log := "b" :: !log));
        Engine.run e;
        check Alcotest.(list string) "order" [ "a1"; "b"; "a2" ] (List.rev !log));
    Alcotest.test_case "stop halts the loop" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 100 do
                 Engine.sleep e (Time.ms 1);
                 incr count;
                 if !count = 5 then Engine.stop e
               done));
        Engine.run e;
        checki "stopped" 5 !count);
    Alcotest.test_case "identical runs have identical trace hashes" `Quick
      (fun () ->
        let run_once () =
          let e = Engine.create ~seed:11 () in
          ignore
            (Engine.spawn e (fun () ->
                 for i = 1 to 20 do
                   Engine.sleep e (Time.us (Rng.int (Engine.rng e) 500 + 1));
                   Engine.record e (Printf.sprintf "step %d" i)
                 done));
          Engine.run e;
          Trace.hash (Engine.trace e)
        in
        checkb "equal" true (run_once () = run_once ()));
    Alcotest.test_case "different seeds give different traces" `Quick (fun () ->
        let run_once seed =
          let e = Engine.create ~seed () in
          ignore
            (Engine.spawn e (fun () ->
                 for i = 1 to 20 do
                   Engine.sleep e (Time.us (Rng.int (Engine.rng e) 500 + 1));
                   Engine.record e (Printf.sprintf "step %d" i)
                 done));
          Engine.run e;
          Trace.hash (Engine.trace e)
        in
        checkb "differ" false (run_once 1 = run_once 2));
    Alcotest.test_case "fiber ids are monotonic and exposed in the trace"
      `Quick (fun () ->
        let e = Engine.create () in
        let child_id = ref (-1) in
        let a =
          Engine.spawn e ~name:"a" (fun () ->
              let c = Engine.spawn e ~name:"c" (fun () -> ()) in
              child_id := Engine.fiber_id c)
        in
        let b = Engine.spawn e ~name:"b" (fun () -> ()) in
        Engine.run e;
        checki "first" 0 (Engine.fiber_id a);
        checki "second" 1 (Engine.fiber_id b);
        checki "nested third" 2 !child_id;
        let spawns =
          List.filter
            (fun (_, m) -> String.length m >= 5 && String.sub m 0 5 = "spawn")
            (Trace.recent (Engine.trace e) 16)
        in
        check
          Alcotest.(list string)
          "trace records ids"
          [ "spawn #0 a"; "spawn #1 b"; "spawn #2 c" ]
          (List.map snd spawns));
    Alcotest.test_case "fiber ids are stable across same-seed runs" `Quick
      (fun () ->
        let run_once () =
          let e = Engine.create ~seed:13 () in
          let ids = ref [] in
          for i = 1 to 4 do
            let f =
              Engine.spawn e ~name:(Printf.sprintf "w%d" i) (fun () ->
                  Engine.sleep e
                    (Time.us (Rng.int (Engine.rng e) 100 + 1)))
            in
            ids := (Engine.fiber_name f, Engine.fiber_id f) :: !ids
          done;
          Engine.run e;
          (List.rev !ids, Trace.hash (Engine.trace e))
        in
        let a = run_once () and b = run_once () in
        checkb "identical id assignment" true (fst a = fst b);
        checkb "identical traces" true (snd a = snd b));
    Alcotest.test_case "random-order policy is deterministic per seed" `Quick
      (fun () ->
        let run_once policy =
          let e = Engine.create ~policy () in
          let order = ref [] in
          for i = 1 to 6 do
            Engine.schedule_at e Time.zero (fun () -> order := i :: !order)
          done;
          Engine.run e;
          List.rev !order
        in
        let r1 = run_once (Engine.Random_order 3) in
        let r2 = run_once (Engine.Random_order 3) in
        checkb "reproducible" true (r1 = r2);
        check
          Alcotest.(list int)
          "all tasks ran" [ 1; 2; 3; 4; 5; 6 ]
          (List.sort compare r1);
        checkb "some seed permutes the FIFO order" true
          (List.exists
             (fun s -> run_once (Engine.Random_order s) <> run_once Engine.Fifo)
             [ 1; 2; 3; 4; 5 ]));
    Alcotest.test_case "jitter policy delays by at most the bound" `Quick
      (fun () ->
        let bound = Time.us 50 in
        let e =
          Engine.create
            ~policy:(Engine.Delay_jitter { jitter_seed = 4; bound })
            ()
        in
        let ran_at = ref Time.zero in
        Engine.schedule_at e (Time.ms 1) (fun () -> ran_at := Engine.now e);
        Engine.run e;
        checkb "not early" true Time.(!ran_at >= Time.ms 1);
        checkb "within bound" true
          Time.(!ran_at <= Time.add (Time.ms 1) bound));
    Alcotest.test_case "policies leave the model RNG stream untouched" `Quick
      (fun () ->
        let stream policy =
          let e = Engine.create ~seed:21 ~policy () in
          List.init 20 (fun _ -> Rng.next_int64 (Engine.rng e))
        in
        checkb "same stream" true
          (stream Engine.Fifo = stream (Engine.Random_order 99)));
    Alcotest.test_case "view reports pending, blocked and fibers" `Quick
      (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"stuck" (fun () ->
               ignore (Engine.suspend e ~reason:"forever" (fun _ -> ()))));
        ignore (Engine.spawn e ~name:"done" (fun () -> ()));
        Engine.run e;
        let v = Engine.view e in
        checki "no pending tasks" 0 v.Engine.v_pending;
        checki "one blocked" 1 (List.length v.Engine.v_blocked);
        checki "two fibers" 2 (List.length v.Engine.v_fibers);
        match v.Engine.v_fibers with
        | [ f0; f1 ] ->
          checki "ids in order" 0 f0.Engine.fi_id;
          checki "ids in order" 1 f1.Engine.fi_id;
          check Alcotest.string "state" "blocked:forever" f0.Engine.fi_state;
          check Alcotest.string "state" "finished" f1.Engine.fi_state
        | _ -> Alcotest.fail "expected two fiber infos");
    Alcotest.test_case "blocked_fibers reports reason" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e ~name:"waiter" (fun () ->
               ignore (Engine.suspend e ~reason:"test-reason" (fun _ -> ()))));
        Engine.run e;
        match Engine.blocked_fibers e with
        | [ desc ] ->
          checkb "mentions reason" true
            (String.length desc > 0
            && String.length desc >= String.length "waiter");
        | _ -> Alcotest.fail "expected one blocked fiber");
  ]

(* ---- Sync ----------------------------------------------------------------- *)

let sync_tests =
  [
    Alcotest.test_case "ivar delivers to later reader" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        let got = ref 0 in
        Sync.Ivar.fill iv 42;
        ignore (Engine.spawn e (fun () -> got := Sync.Ivar.read iv));
        Engine.run e;
        checki "42" 42 !got);
    Alcotest.test_case "ivar wakes blocked readers" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        let got = ref [] in
        for i = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 let v = Sync.Ivar.read iv in
                 got := (i, v) :: !got))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               Sync.Ivar.fill iv 7));
        Engine.run e;
        checki "all three" 3 (List.length !got);
        checkb "all 7" true (List.for_all (fun (_, v) -> v = 7) !got));
    Alcotest.test_case "ivar double fill rejected" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        Sync.Ivar.fill iv 1;
        checkb "rejected" true
          (match Sync.Ivar.fill iv 2 with
          | () -> false
          | exception Invalid_argument _ -> true);
        checkb "try_fill false" false (Sync.Ivar.try_fill iv 3));
    Alcotest.test_case "ivar error propagates" `Quick (fun () ->
        let e = Engine.create () in
        let iv = Sync.Ivar.create e in
        Sync.Ivar.fill_error iv Not_found;
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try ignore (Sync.Ivar.read iv) with Not_found -> caught := true));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "mailbox is FIFO" `Quick (fun () ->
        let e = Engine.create () in
        let mb = Sync.Mailbox.create e in
        let got = ref [] in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 3 do
                 let v = Sync.Mailbox.take mb in
                 got := v :: !got
               done));
        ignore
          (Engine.spawn e (fun () ->
               List.iter (Sync.Mailbox.put mb) [ 1; 2; 3 ]));
        Engine.run e;
        check Alcotest.(list int) "order" [ 1; 2; 3 ] (List.rev !got));
    Alcotest.test_case "mailbox poison wakes takers" `Quick (fun () ->
        let e = Engine.create () in
        let mb : int Sync.Mailbox.t = Sync.Mailbox.create e in
        let caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               try ignore (Sync.Mailbox.take mb) with Exit -> caught := true));
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               Sync.Mailbox.poison mb Exit));
        Engine.run e;
        checkb "caught" true !caught);
    Alcotest.test_case "mailbox delivers queued items before poison" `Quick
      (fun () ->
        let e = Engine.create () in
        let mb = Sync.Mailbox.create e in
        Sync.Mailbox.put mb 1;
        Sync.Mailbox.poison mb Exit;
        let got = ref 0 and caught = ref false in
        ignore
          (Engine.spawn e (fun () ->
               got := Sync.Mailbox.take mb;
               try ignore (Sync.Mailbox.take mb) with Exit -> caught := true));
        Engine.run e;
        checki "item" 1 !got;
        checkb "then poison" true !caught);
    Alcotest.test_case "semaphore serializes" `Quick (fun () ->
        let e = Engine.create () in
        let sem = Sync.Semaphore.create e 2 in
        let active = ref 0 and peak = ref 0 in
        for _ = 1 to 5 do
          ignore
            (Engine.spawn e (fun () ->
                 Sync.Semaphore.acquire sem;
                 incr active;
                 peak := max !peak !active;
                 Engine.sleep e (Time.ms 2);
                 decr active;
                 Sync.Semaphore.release sem))
        done;
        Engine.run e;
        checki "peak" 2 !peak);
    Alcotest.test_case "waitq signal order is FIFO" `Quick (fun () ->
        let e = Engine.create () in
        let q = Sync.Waitq.create e in
        let got = ref [] in
        for i = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 let v = Sync.Waitq.wait q in
                 got := (i, v) :: !got))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               ignore (Sync.Waitq.signal q "x");
               ignore (Sync.Waitq.signal q "y");
               ignore (Sync.Waitq.signal q "z")));
        Engine.run e;
        check
          Alcotest.(list (pair int string))
          "fifo" [ (1, "x"); (2, "y"); (3, "z") ]
          (List.rev !got));
    Alcotest.test_case "stats counters accumulate and diff" `Quick (fun () ->
        let s = Stats.create () in
        Stats.incr s "a";
        Stats.incr s ~by:4 "a";
        Stats.incr s "b";
        checki "a" 5 (Stats.get s "a");
        checki "missing" 0 (Stats.get s "zzz");
        let before = Stats.snapshot s in
        Stats.incr s ~by:2 "a";
        Stats.incr s "c";
        let d = Stats.diff ~before ~after:(Stats.snapshot s) in
        checki "a diff" 2 (List.assoc "a" d);
        checki "c diff" 1 (List.assoc "c" d);
        checkb "b unchanged" true (not (List.mem_assoc "b" d)));
    Alcotest.test_case "series statistics" `Quick (fun () ->
        let s = Stats.Series.create () in
        List.iter (fun n -> Stats.Series.add s (Time.ms n)) [ 4; 2; 6 ];
        checki "count" 3 (Stats.Series.count s);
        checki "mean" (Time.to_ns (Time.ms 4)) (Time.to_ns (Stats.Series.mean s));
        checki "min" (Time.to_ns (Time.ms 2)) (Time.to_ns (Stats.Series.min s));
        checki "max" (Time.to_ns (Time.ms 6)) (Time.to_ns (Stats.Series.max s));
        checki "p50" (Time.to_ns (Time.ms 4))
          (Time.to_ns (Stats.Series.percentile s 0.5)));
  ]

let extra_tests =
  [
    Alcotest.test_case "waitq broadcast_error wakes everyone" `Quick (fun () ->
        let e = Engine.create () in
        let q : int Sync.Waitq.t = Sync.Waitq.create e in
        let woken = ref 0 in
        for _ = 1 to 3 do
          ignore
            (Engine.spawn e (fun () ->
                 try ignore (Sync.Waitq.wait q)
                 with Not_found -> incr woken))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               checki "three waiters" 3 (Sync.Waitq.waiters q);
               checki "three woken" 3 (Sync.Waitq.broadcast_error q Not_found)));
        Engine.run e;
        checki "all woke with the error" 3 !woken);
    Alcotest.test_case "waitq signal_error targets one waiter" `Quick
      (fun () ->
        let e = Engine.create () in
        let q : unit Sync.Waitq.t = Sync.Waitq.create e in
        let errs = ref 0 and oks = ref 0 in
        for _ = 1 to 2 do
          ignore
            (Engine.spawn e (fun () ->
                 match Sync.Waitq.wait q with
                 | () -> incr oks
                 | exception Exit -> incr errs))
        done;
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.ms 1);
               ignore (Sync.Waitq.signal_error q Exit);
               ignore (Sync.Waitq.signal q ())));
        Engine.run e;
        checki "one error" 1 !errs;
        checki "one ok" 1 !oks);
    Alcotest.test_case "mailbox peek and length" `Quick (fun () ->
        let e = Engine.create () in
        let mb = Sync.Mailbox.create e in
        checkb "empty" true (Sync.Mailbox.is_empty mb);
        Sync.Mailbox.put mb 1;
        Sync.Mailbox.put mb 2;
        checki "length" 2 (Sync.Mailbox.length mb);
        checkb "peek head" true (Sync.Mailbox.peek_opt mb = Some 1);
        checkb "peek does not consume" true (Sync.Mailbox.length mb = 2);
        checkb "take_opt" true (Sync.Mailbox.take_opt mb = Some 1));
    Alcotest.test_case "semaphore reports availability" `Quick (fun () ->
        let e = Engine.create () in
        let sem = Sync.Semaphore.create e 3 in
        ignore
          (Engine.spawn e (fun () ->
               Sync.Semaphore.acquire sem;
               checki "two left" 2 (Sync.Semaphore.available sem);
               Sync.Semaphore.release sem;
               checki "back to three" 3 (Sync.Semaphore.available sem)));
        Engine.run e);
    Alcotest.test_case "run_until can be continued by run" `Quick (fun () ->
        let e = Engine.create () in
        let steps = ref 0 in
        ignore
          (Engine.spawn e (fun () ->
               for _ = 1 to 10 do
                 Engine.sleep e (Time.ms 10);
                 incr steps
               done));
        Engine.run_until e (Time.ms 45);
        checki "four so far" 4 !steps;
        Engine.run e;
        checki "all ten" 10 !steps);
    Alcotest.test_case "record feeds the trace" `Quick (fun () ->
        let e = Engine.create () in
        ignore
          (Engine.spawn e (fun () ->
               Engine.record e "one";
               Engine.sleep e (Time.ms 1);
               Engine.record e "two"));
        Engine.run e;
        (* Three events: the spawn record plus the two explicit ones. *)
        checki "three events" 3 (Trace.count (Engine.trace e));
        match Trace.recent (Engine.trace e) 3 with
        | [ (_, "spawn #0 fiber"); (_, "one"); (t2, "two") ] ->
          checki "timestamped" (Time.to_ns (Time.ms 1)) (Time.to_ns t2)
        | _ -> Alcotest.fail "unexpected trace");
    Alcotest.test_case "fibers can spawn fibers" `Quick (fun () ->
        let e = Engine.create () in
        let order = ref [] in
        ignore
          (Engine.spawn e ~name:"parent" (fun () ->
               order := "parent" :: !order;
               ignore
                 (Engine.spawn e ~name:"child" (fun () ->
                      Engine.sleep e (Time.ms 1);
                      order := "child" :: !order));
               Engine.sleep e (Time.ms 2);
               order := "parent-end" :: !order));
        Engine.run e ~expect_quiescent:true;
        Alcotest.check
          Alcotest.(list string)
          "order"
          [ "parent"; "child"; "parent-end" ]
          (List.rev !order));
    Alcotest.test_case "current_fiber_name tracks context" `Quick (fun () ->
        let e = Engine.create () in
        let inside = ref "" in
        ignore
          (Engine.spawn e ~name:"worker" (fun () ->
               inside := Engine.current_fiber_name e));
        Alcotest.check Alcotest.string "outside" "<scheduler>"
          (Engine.current_fiber_name e);
        Engine.run e;
        Alcotest.check Alcotest.string "inside" "worker" !inside);
    Alcotest.test_case "time unit conversions agree" `Quick (fun () ->
        checkb "us float" true
          (Time.to_us (Time.of_us_float 12.5) = 12.5);
        checkb "sec" true (Time.to_sec (Time.sec 2) = 2.0);
        checkb "is_zero" true (Time.is_zero Time.zero);
        checkb "not zero" false (Time.is_zero (Time.ns 1)));
  ]

(* ---- Vector clocks ------------------------------------------------------- *)

(* [Vclock] against the list oracle in [Vclock_ref].  A pool of eight
   clocks, each paired with its oracle twin, goes through random ops:
   owner ticks (each slot has a home fiber id, spread over 0..600 so the
   trie takes varied shapes), ticks by an arbitrary id (re-owning the
   clock), merges in both orders, plain copies (physically shared
   clocks), and resets to an arbitrary vector — so later merges combine
   clocks with no common history and per-fiber counters go backwards,
   as no engine-generated stream would.  After every op the touched
   clock must agree with its twin on [to_string], on [get] at a few ids
   and on [leq]/[compare_causal]/[concurrent] against every slot. *)
let vclock_slots = 8

let arbitrary_clock seed =
  let c = ref Vclock.empty and r = ref Vclock_ref.empty in
  let x = ref seed in
  for _ = 0 to seed mod 6 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let id = !x mod 601 in
    for _ = 0 to (!x lsr 12) mod 4 do
      c := Vclock.tick !c id;
      r := Vclock_ref.tick !r id
    done
  done;
  (!c, !r)

let vclock_differential =
  QCheck.Test.make ~name:"Vclock agrees with the list oracle" ~count:1000
    QCheck.(
      list_of_size
        Gen.(int_range 1 80)
        (quad (int_bound 9) (int_bound 7) (int_bound 7) (int_bound 600)))
    (fun ops ->
      let cs = Array.make vclock_slots Vclock.empty in
      let rs = Array.make vclock_slots Vclock_ref.empty in
      let agree x ids =
        Vclock.to_string cs.(x) = Vclock_ref.to_string rs.(x)
        && List.for_all (fun i -> Vclock.get cs.(x) i = Vclock_ref.get rs.(x) i) ids
        && List.for_all
             (fun y ->
               Vclock.leq cs.(x) cs.(y) = Vclock_ref.leq rs.(x) rs.(y)
               && Vclock.leq cs.(y) cs.(x) = Vclock_ref.leq rs.(y) rs.(x)
               && Vclock.compare_causal cs.(x) cs.(y)
                  = Vclock_ref.compare_causal rs.(x) rs.(y)
               && Vclock.concurrent cs.(x) cs.(y)
                  = (Vclock_ref.compare_causal rs.(x) rs.(y) = `Concurrent))
             (List.init vclock_slots Fun.id)
      in
      List.for_all
        (fun (op, x, y, z) ->
          let home = x * 75 in
          (match op with
          | 0 | 1 | 2 | 3 ->
            cs.(x) <- Vclock.tick cs.(x) home;
            rs.(x) <- Vclock_ref.tick rs.(x) home
          | 4 ->
            cs.(x) <- Vclock.tick cs.(x) z;
            rs.(x) <- Vclock_ref.tick rs.(x) z
          | 5 | 6 | 7 ->
            cs.(x) <- Vclock.merge cs.(x) cs.(y);
            rs.(x) <- Vclock_ref.merge rs.(x) rs.(y)
          | 8 ->
            cs.(x) <- Vclock.merge cs.(y) cs.(x);
            rs.(x) <- Vclock_ref.merge rs.(y) rs.(x)
          | _ ->
            if y land 1 = 0 then begin
              let c, r = arbitrary_clock z in
              cs.(x) <- c;
              rs.(x) <- r
            end
            else begin
              cs.(x) <- cs.(y);
              rs.(x) <- rs.(y)
            end);
          agree x [ home; y * 75; z; (z * 7) mod 601 ])
        ops)

let vclock_tests =
  [
    Alcotest.test_case "to_string ascends across the sign bit" `Quick
      (fun () ->
        let ids = [ 5; -3; 0; max_int; -1; min_int; 64; 2 ] in
        let c = List.fold_left Vclock.tick Vclock.empty ids in
        let r = List.fold_left Vclock_ref.tick Vclock_ref.empty ids in
        check Alcotest.string "render" (Vclock_ref.to_string r)
          (Vclock.to_string c);
        let c' = Vclock.merge (Vclock.tick Vclock.empty (-7)) c in
        let r' = Vclock_ref.merge (Vclock_ref.tick Vclock_ref.empty (-7)) r in
        check Alcotest.string "merged" (Vclock_ref.to_string r')
          (Vclock.to_string c');
        checkb "leq" true (Vclock.leq c c');
        checkb "not leq" false (Vclock.leq c' c));
    Alcotest.test_case "a merge that learns nothing returns its input" `Quick
      (fun () ->
        (* A fiber's clock merged with an older snapshot of itself, or
           with a clock it already heard from, is physically unchanged. *)
        let base =
          List.fold_left Vclock.tick Vclock.empty (List.init 300 (fun i -> i))
        in
        let a = Vclock.tick (Vclock.tick base 7) 7 in
        let b = Vclock.tick base 400 in
        let ab = Vclock.merge a b in
        checkb "a absorbs base" true (Vclock.merge a base == a);
        checkb "base into a" true (Vclock.merge base a == a);
        checkb "ab absorbs b" true (Vclock.merge ab b == ab);
        checkb "ab absorbs a" true (Vclock.merge ab a == ab);
        checkb "self" true (Vclock.merge ab ab == ab));
  ]

let () =
  Alcotest.run "sim"
    [
      ("time", time_tests);
      ( "heap",
        heap_tests @ heap_clear_tests
        @ [
            QCheck_alcotest.to_alcotest heap_property;
            QCheck_alcotest.to_alcotest heap_model_property;
          ] );
      ("rng", rng_tests @ rng_golden_tests @ [ QCheck_alcotest.to_alcotest rng_property ]);
      ("trace", trace_tests);
      ("engine", engine_tests);
      ("stackless", stackless_tests);
      ("event-log", event_log_tests);
      ("sync", sync_tests);
      ("extra", extra_tests);
      ( "vclock",
        vclock_tests @ [ QCheck_alcotest.to_alcotest vclock_differential ] );
    ]
