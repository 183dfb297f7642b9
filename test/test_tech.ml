(* Catalog entries by name. *)
let proc name =
  match Tech.Parts.find name with
  | Some (Tech.Parts.Proc p) -> p
  | _ -> Alcotest.failf "no processor %s" name

let mem name =
  match Tech.Parts.find name with
  | Some (Tech.Parts.Mem m) -> m
  | _ -> Alcotest.failf "no memory %s" name

let body_of src stmts =
  ignore src;
  match
    (Vhdl.Parser.parse
       (Printf.sprintf
          {|entity e is end;
architecture a of e is
  shared variable g : integer;
begin
  main: process
    variable l : integer;
  begin
%s
  end process;
end;|}
          stmts))
      .Vhdl.Ast.processes
  with
  | [ p ] -> p.Vhdl.Ast.proc_body
  | _ -> Alcotest.fail "expected one process"

let census ?(is_local = fun n -> n = "l") ?(is_sub = fun _ -> false) stmts =
  Tech.Census.of_behavior ~profile:Flow.Profile.empty ~is_local ~is_sub ~name:"main"
    (body_of () stmts)

let checkf = Alcotest.(check (float 1e-9))
let checki = Alcotest.(check int)

let test_census_arith_ops () =
  let c = census "l := l + 1; l := l * 2;" in
  checkf "one dynamic add" 1.0 (Tech.Census.dyn c Tech.Optype.Add);
  checkf "one dynamic mul" 1.0 (Tech.Census.dyn c Tech.Optype.Mul);
  checki "one static add" 1 (Tech.Census.stat c Tech.Optype.Add);
  checki "one static mul" 1 (Tech.Census.stat c Tech.Optype.Mul);
  checkf "two moves" 2.0 (Tech.Census.dyn c Tech.Optype.Move)

let test_census_loop_scaling () =
  let c = census "for i in 1 to 10 loop l := l + 1; end loop;" in
  (* Body add executes 10x, plus the loop's own increment 10x. *)
  checkf "adds scaled by trips" 20.0 (Tech.Census.dyn c Tech.Optype.Add);
  checki "static adds: body + loop overhead" 2 (Tech.Census.stat c Tech.Optype.Add);
  checkf "loop compare each trip" 10.0 (Tech.Census.dyn c Tech.Optype.Cmp)

let test_census_local_vs_global_loads () =
  let c = census "l := g;" in
  (* The read of [g] is a channel access: static only. *)
  checkf "no dynamic load for global" 0.0 (Tech.Census.dyn c Tech.Optype.Load);
  checki "static load for global" 1 (Tech.Census.stat c Tech.Optype.Load);
  checkf "dynamic store for local" 1.0 (Tech.Census.dyn c Tech.Optype.Store);
  let c2 = census "g := l;" in
  checkf "dynamic load for local" 1.0 (Tech.Census.dyn c2 Tech.Optype.Load);
  checkf "no dynamic store for global" 0.0 (Tech.Census.dyn c2 Tech.Optype.Store)

let test_census_sub_reads_are_calls () =
  let c = census ~is_sub:(fun n -> n = "getval") "l := getval(3);" in
  checki "call linkage counted" 1 (Tech.Census.stat c Tech.Optype.Call_op);
  checki "no load for the subprogram name" 0 (Tech.Census.stat c Tech.Optype.Load)

let test_census_branch_ops () =
  let c = census "if l > 0 then l := 1; end if;" in
  checki "one static branch" 1 (Tech.Census.stat c Tech.Optype.Branch);
  checkf "one dynamic cmp" 1.0 (Tech.Census.dyn c Tech.Optype.Cmp)

let test_proc_model_ict () =
  let c = census "for i in 1 to 100 loop l := l + 1; end loop;" in
  let small = Tech.Proc_model.behavior_ict_us (proc "mcu8") c in
  let big = Tech.Proc_model.behavior_ict_us (proc "cpu32") c in
  Alcotest.(check bool) "ict positive" true (small > 0.0);
  Alcotest.(check bool) "faster cpu has smaller ict" true (big < small)

let test_proc_model_size () =
  let small = census "l := 1;" in
  let large = census "l := 1; l := 2; l := 3; l := l + l * 2;" in
  let s1 = Tech.Proc_model.behavior_size_bytes (proc "cpu32") small in
  let s2 = Tech.Proc_model.behavior_size_bytes (proc "cpu32") large in
  Alcotest.(check bool) "more code, more bytes" true (s2 > s1);
  Alcotest.(check bool) "overhead floor" true
    (s1 >= float_of_int (proc "cpu32").Tech.Proc_model.code_overhead_bytes)

let test_proc_variable_size () =
  checkf "1024 bits on a 16-bit-word cpu32? (32-bit words, 4 bytes each)"
    128.0
    (Tech.Proc_model.variable_size_bytes (proc "cpu32") ~storage_bits:1024);
  checkf "7 bits round up to one 8-bit word" 1.0
    (Tech.Proc_model.variable_size_bytes (proc "mcu8") ~storage_bits:7)

let test_asic_allocate () =
  let c = census "l := l + 1;" in
  checki "single add site allocates one FU" 1
    (Tech.Asic_model.allocate Tech.Parts.asic_gal c Tech.Optype.Add);
  checki "unused class allocates nothing" 0
    (Tech.Asic_model.allocate Tech.Parts.asic_gal c Tech.Optype.Div)

let test_asic_allocation_bounded () =
  let many = census (String.concat " " (List.init 30 (fun i -> Printf.sprintf "l := l / %d;" (i + 2)))) in
  let div_alloc = Tech.Asic_model.allocate Tech.Parts.asic_gal many Tech.Optype.Div in
  Alcotest.(check bool) "bounded by library availability" true
    (div_alloc <= (Tech.Parts.asic_gal.Tech.Asic_model.fu_of Tech.Optype.Div).Tech.Asic_model.available)

let test_asic_ict_faster_than_cpu () =
  (* Datapath-heavy behavior: custom hardware beats the standard CPU, the
     shape behind Figure 3's 80us-vs-10us ict example. *)
  let c = census "for i in 1 to 100 loop l := l * 3 + l / 2; end loop;" in
  let cpu = Tech.Proc_model.behavior_ict_us (proc "cpu32") c in
  let asic = Tech.Asic_model.behavior_ict_us Tech.Parts.asic_gal c in
  Alcotest.(check bool) "asic faster" true (asic < cpu)

let test_asic_size_grows_with_registers () =
  let c = census "l := 1;" in
  let small = Tech.Asic_model.behavior_size_gates Tech.Parts.asic_gal c ~local_bits:8 in
  let big = Tech.Asic_model.behavior_size_gates Tech.Parts.asic_gal c ~local_bits:512 in
  Alcotest.(check bool) "register area grows" true (big > small)

let test_mem_model () =
  checkf "1024 bits = 64 sram16 words" 64.0
    (Tech.Mem_model.variable_size_words (mem "sram16") ~storage_bits:1024);
  checkf "17 bits = 2 words" 2.0
    (Tech.Mem_model.variable_size_words (mem "sram16") ~storage_bits:17);
  Alcotest.(check bool) "access time positive" true
    (Tech.Mem_model.variable_access_us (mem "sram16") > 0.0)

let test_parts_find () =
  (match Tech.Parts.find "cpu32" with
  | Some (Tech.Parts.Proc p) -> Alcotest.(check string) "name" "cpu32" p.Tech.Proc_model.name
  | _ -> Alcotest.fail "cpu32 missing");
  (match Tech.Parts.find "asic_gal" with
  | Some (Tech.Parts.Asic _) -> ()
  | _ -> Alcotest.fail "asic_gal missing");
  (match Tech.Parts.find "sram16" with
  | Some (Tech.Parts.Mem _) -> ()
  | _ -> Alcotest.fail "sram16 missing");
  Alcotest.(check bool) "unknown" true (Tech.Parts.find "nonsense" = None)

let test_dsp_beats_cpu_on_mac_code () =
  (* The DSP's reason to exist: single-cycle multiply-accumulate. *)
  let c = census "for i in 1 to 64 loop l := l + l * 3; end loop;" in
  let dsp = Tech.Proc_model.behavior_ict_us (proc "dsp16") c in
  let cpu = Tech.Proc_model.behavior_ict_us (proc "cpu32") c in
  Alcotest.(check bool) "dsp faster on MAC loops" true (dsp < cpu);
  (* ...but not on division-heavy code. *)
  let d = census "for i in 1 to 64 loop l := l / 3; end loop;" in
  Alcotest.(check bool) "dsp slower on division" true
    (Tech.Proc_model.behavior_ict_us (proc "dsp16") d
    > Tech.Proc_model.behavior_ict_us (proc "cpu32") d)

let test_eeprom_slow_but_dense () =
  Alcotest.(check bool) "eeprom slower than sram" true
    (Tech.Mem_model.variable_access_us (mem "eeprom8")
    > Tech.Mem_model.variable_access_us (mem "sram16"));
  Alcotest.(check (float 1e-9)) "8 bits = 1 word" 1.0
    (Tech.Mem_model.variable_size_words (mem "eeprom8") ~storage_bits:8)

let test_all_technologies_distinct_names () =
  let names = List.map Tech.Parts.technology_name Tech.Parts.all in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Each op's dynamic count adds its expression terms, then its statement
   terms, in walk order, whatever the order the walk meets them in.  Here
   the walk meets the adds as 0.1 (x + 1), 0.5 (the for loop's increment,
   a statement term), 0.5 (the body's x + 1) and 0.1; summed in meeting
   order the last bit differs. *)
let test_census_term_order () =
  let profile =
    Flow.Profile.set_branch Flow.Profile.empty ~behavior:"main" ~site:0 ~arm:0 0.1
  in
  let c =
    Tech.Census.of_behavior ~profile ~is_local:(fun _ -> true) ~is_sub:(fun _ -> false)
      ~name:"main"
      (body_of ()
         "if l = 1 then l := l + 1;\n\
         \  for i in 1 to 5 loop l := l + 1; end loop;\n\
         \  l := l + 1; end if;")
  in
  let by_kind = ((0.1 +. 0.5) +. 0.1) +. 0.5 and by_walk = ((0.1 +. 0.5) +. 0.5) +. 0.1 in
  Alcotest.(check bool) "the two orders differ" true (by_kind <> by_walk);
  let add = Tech.Census.dyn c Tech.Optype.Add in
  if Int64.bits_of_float add <> Int64.bits_of_float by_kind then
    Alcotest.failf "dynamic adds %h, expected %h" add by_kind

let suite =
  [
    Alcotest.test_case "census arithmetic ops" `Quick test_census_arith_ops;
    Alcotest.test_case "census loop scaling" `Quick test_census_loop_scaling;
    Alcotest.test_case "census local vs global accesses" `Quick test_census_local_vs_global_loads;
    Alcotest.test_case "census subprogram reads are calls" `Quick test_census_sub_reads_are_calls;
    Alcotest.test_case "census branch ops" `Quick test_census_branch_ops;
    Alcotest.test_case "proc model ict" `Quick test_proc_model_ict;
    Alcotest.test_case "proc model size" `Quick test_proc_model_size;
    Alcotest.test_case "proc variable sizing" `Quick test_proc_variable_size;
    Alcotest.test_case "asic FU allocation" `Quick test_asic_allocate;
    Alcotest.test_case "asic allocation bounded" `Quick test_asic_allocation_bounded;
    Alcotest.test_case "asic faster than cpu on datapath code" `Quick test_asic_ict_faster_than_cpu;
    Alcotest.test_case "asic register area" `Quick test_asic_size_grows_with_registers;
    Alcotest.test_case "memory model" `Quick test_mem_model;
    Alcotest.test_case "parts catalog lookup" `Quick test_parts_find;
    Alcotest.test_case "dsp MAC advantage" `Quick test_dsp_beats_cpu_on_mac_code;
    Alcotest.test_case "eeprom characteristics" `Quick test_eeprom_slow_but_dense;
    Alcotest.test_case "technology names unique" `Quick test_all_technologies_distinct_names;
    Alcotest.test_case "census adds terms kind by kind" `Quick test_census_term_order;
  ]
