# Runs one multi-seed CLI sweep with --trace-out at --jobs 1 and at
# --jobs 2 and fails unless both runs wrote the same set of per-seed
# trace files, byte for byte (docs/OBSERVABILITY.md: telemetry files are
# byte-identical at any --jobs). The powerchief-conserve sweep withdraws
# instances, so the withdraw decisions' subjects are covered too.
#
# Usage: cmake -DCLI=<powerchief-cli> -DOUT=<output dir>
#              -P jobs_identity.cmake

if(NOT CLI OR NOT OUT)
    message(FATAL_ERROR
            "usage: cmake -DCLI=<cli> -DOUT=<dir> -P jobs_identity.cmake")
endif()

foreach(jobs 1 2)
    set(dir "${OUT}/j${jobs}")
    file(REMOVE_RECURSE "${dir}")
    file(MAKE_DIRECTORY "${dir}")
    execute_process(
        COMMAND "${CLI}" --policy=powerchief-conserve --qos=6
                --seeds=3,4,5,6 --jobs=${jobs} --no-cache
                --trace-out=${dir}/run.json
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "--jobs ${jobs} sweep exited with ${rc}")
    endif()
endforeach()

file(GLOB one RELATIVE "${OUT}/j1" "${OUT}/j1/*.json")
file(GLOB two RELATIVE "${OUT}/j2" "${OUT}/j2/*.json")
list(LENGTH one count)
if(NOT count EQUAL 4 OR NOT one STREQUAL two)
    message(FATAL_ERROR "trace files differ: jobs 1 wrote [${one}], "
                        "jobs 2 wrote [${two}]")
endif()
set(differ "")
foreach(f ${one})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${OUT}/j1/${f}" "${OUT}/j2/${f}"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        list(APPEND differ "${f}")
    endif()
endforeach()
if(differ)
    message(FATAL_ERROR "traces differ between --jobs 1 and 2: ${differ}")
endif()
message(STATUS "${count} traces byte-identical at --jobs 1 and 2")
