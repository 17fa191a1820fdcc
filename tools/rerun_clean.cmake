# Runs a bench binary twice in a fresh empty directory and fails unless
# both runs print the same stdout, byte for byte, and the directory is
# still empty afterwards: every run simulates, and a sweep writes no
# file it was not asked for.
#
# Usage: cmake -DBENCH=<binary> -DOUT=<scratch dir> -P rerun_clean.cmake

if(NOT BENCH OR NOT OUT)
    message(FATAL_ERROR
            "usage: cmake -DBENCH=<binary> -DOUT=<dir> -P rerun_clean.cmake")
endif()

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
foreach(pass 1 2)
    execute_process(
        COMMAND "${BENCH}"
        WORKING_DIRECTORY "${OUT}"
        OUTPUT_VARIABLE stdout${pass}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pass ${pass} exited with ${rc}")
    endif()
endforeach()

if(NOT stdout1 STREQUAL stdout2)
    message(FATAL_ERROR "the two passes printed different output")
endif()
file(GLOB left LIST_DIRECTORIES true "${OUT}/*" "${OUT}/.*")
if(left)
    message(FATAL_ERROR "the runs left files behind: ${left}")
endif()
message(STATUS "two passes printed identical output and wrote nothing")
